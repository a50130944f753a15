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
//!   [`crate::StopPolicy`], cancellation, and failure all release the live slot
//!   *and* the driver's memory immediately; undelivered reports survive in
//!   a bounded buffer (state `Draining`) until the client drains them.
//! * **Backpressure is explicit.** A full report buffer parks the session
//!   (off the ready queue) until the client pops; a full wait queue rejects
//!   `submit` with [`AdmitError::QueueFull`]; a breached memory ceiling
//!   sheds `Queued` work earliest-deadline-first — never `Running` work.
//! * **One admission path.** A submitted session, one rebuilt by
//!   [`Server::recover`], and one leaving the wait queue all become live
//!   through `place`; `Slot::new` is the only place a session's
//!   bookkeeping is built. The durable log format, its fault damage and
//!   its write counts belong to [`DurableStore`]: this module hands it
//!   sessions, drivers and reports, never records.
//!
//! The only unbounded block in this crate is the worker park on the `work`
//! condvar below (srclint L006 allowlists exactly that line); every client
//! wait is timeout-bounded.

use crate::durable::DurableStore;
use crate::session::{
    AdmitError, SessionEnd, SessionHandle, SessionSpec, SessionState, SessionSummary,
};
use crate::telemetry::Telemetry;
use iolap_core::trace::NO_BATCH;
use iolap_core::{
    BatchReport, DriverError, IolapDriver, ResumeOutcome, Span, SpanId, TraceEvent, TraceMode,
    Tracer,
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
    /// The one constructor: a session admitted around `driver`. `replayed`
    /// is what [`Server::recover`] re-derived for a session rebuilt from
    /// the durable log — its batches count as run (the session is already
    /// `Running`) and its regenerated reports wait in the buffer.
    fn new(driver: IolapDriver, spec: SessionSpec, replayed: Option<ResumeOutcome>) -> Slot {
        let restored = replayed.is_some();
        let (batches_run, reports) = replayed
            .map(|r| (r.replayed_batches, r.reports))
            .unwrap_or_default();
        let running = batches_run > 0;
        Slot {
            spec,
            seed: driver.config().seed,
            total_batches: driver.num_batches(),
            state: if running {
                SessionState::Running
            } else {
                SessionState::Queued
            },
            end: None,
            end_seq: None,
            stream_table: driver.stream_table().to_string(),
            driver: Some(driver),
            batches_run,
            reports: reports.into(),
            cancel: false,
            waiting_buffer: false,
            holds_slot: false,
            mem_bytes: 0,
            submit_span: Span::start(),
            first_step: running.then(Span::start),
            finish_elapsed: None,
            pending_appends: VecDeque::new(),
            restored,
        }
    }

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

impl State {
    /// The admission counters as [`Server::stats`] and the exposition read
    /// them.
    fn stats(&self) -> ServerStats {
        ServerStats {
            live: self.live,
            queued: self.queued.len(),
            admitted: self.admitted,
            rejected: self.rejected,
            shed: self.shed,
            mem_bytes: live_mem(self),
        }
    }
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
        self.pop_locked(&mut lock(self), id)
    }

    /// [`Shared::pop_report`] under a state guard the caller already holds.
    fn pop_locked(&self, st: &mut State, id: u64) -> Option<BatchReport> {
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

    /// The one bounded client wait: re-check `ready` under the state guard
    /// on every wakeup (the guard is held across check and wait, so no
    /// wakeup between them is lost) until it yields a value or `timeout`
    /// passes (`None`).
    fn wait_until<T>(
        &self,
        timeout: Duration,
        mut ready: impl FnMut(&mut State) -> Option<T>,
    ) -> Option<T> {
        let start = Span::start();
        let mut st = lock(self);
        loop {
            if let Some(out) = ready(&mut st) {
                return Some(out);
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

    /// Bounded wait for the next report, popped under the guard that saw
    /// it (a cloned handle cannot take it in between). `None` on timeout
    /// or when the session is terminal with an empty buffer.
    pub(crate) fn recv_report(&self, id: u64, timeout: Duration) -> Option<BatchReport> {
        self.wait_until(timeout, |st| {
            let Some(slot) = st.sessions.get(&id) else {
                return Some(None);
            };
            if !slot.reports.is_empty() {
                Some(self.pop_locked(st, id))
            } else if slot.state.is_terminal() {
                Some(None)
            } else {
                None
            }
        })
        .flatten()
    }

    /// Bounded wait until the session is finished (no more compute).
    pub(crate) fn wait_finished(&self, id: u64, timeout: Duration) -> bool {
        self.wait_until(timeout, |st| {
            let finished = st.sessions.get(&id).is_none_or(|s| s.state.is_finished());
            finished.then_some(())
        })
        .is_some()
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

/// Enter an admitted session into the slot table, the admission count and
/// the telemetry rollups.
fn register(st: &mut State, id: u64, slot: Slot) {
    st.admitted += 1;
    st.telemetry
        .observe_submit(id, &slot.spec.label, slot.total_batches, &slot.spec.policy);
    st.sessions.insert(id, slot);
}

/// The one admission path: give registered session `id` a free live slot,
/// or queue it (FIFO) when none is free. `how` labels a direct admission
/// in the trace (`direct`, `restored`, `from queue`).
fn place(shared: &Shared, st: &mut State, id: u64, how: &str) {
    let tracer = shared.tracer.as_deref();
    // Placed ids always have a slot; if one ever goes missing, skip it
    // rather than poisoning the scheduler lock with a panic.
    let Some(slot) = st.sessions.get_mut(&id) else {
        return;
    };
    if st.live >= shared.cfg.max_live {
        let why = if slot.restored {
            "restored, waiting for a slot"
        } else {
            "waiting for a slot"
        };
        trace_mark(tracer, "sess.queued", id, why);
        st.queued.push_back(id);
        return;
    }
    st.live += 1;
    slot.holds_slot = true;
    // A restored backlog that already fills the report buffer takes its
    // slot parked, exactly as the uninterrupted run sat, and resumes
    // compute as the client drains.
    if !ready_or_park(shared, st, id, "restored with a full report buffer") {
        trace_mark(tracer, "sess.admit", id, how);
    }
}

/// Put live session `id` on the ready queue, or park it off the queue while
/// its report buffer is full (the client's next pop re-readies it).
/// Returns whether it parked.
fn ready_or_park(shared: &Shared, st: &mut State, id: u64, why: &str) -> bool {
    let Some(slot) = st.sessions.get_mut(&id) else {
        return false;
    };
    if slot.reports.len() >= shared.cfg.report_buffer {
        slot.waiting_buffer = true;
        trace_mark(shared.tracer.as_deref(), "sess.park", id, why);
        return true;
    }
    st.ready.insert(slot.ready_key(id));
    false
}

/// Move waiting sessions into freed live slots (FIFO admission order).
fn admit_from_queue(shared: &Shared, st: &mut State) {
    while st.live < shared.cfg.max_live {
        let Some(id) = st.queued.pop_front() else {
            return;
        };
        place(shared, st, id, "from queue");
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
            let _ = durable.log_finish(id, end.label());
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
        for rows_json in pending {
            let rel = crate::durable::decode_append(&rows_json, driver.stream_schema());
            let applied = rel.and_then(|rel| driver.append_rows(rel).map_err(|e| e.to_string()));
            match applied {
                Ok(_) => {
                    appends_applied += 1;
                    if let Some(durable) = shared.durable.as_deref() {
                        let _ = durable.log_append(id, &rows_json);
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

        // Spill the delivered batch before re-entering the state lock.
        if let (Some(durable), Ok(Some(Ok(report)))) = (shared.durable.as_deref(), &step) {
            durable.log_batch(id, &driver, report);
        }

        let mut st = lock(&shared);
        let outcome = {
            // If the slot vanished while we stepped (a bookkeeping bug, not
            // a reachable state), drop the orphan driver and move on.
            let State {
                sessions,
                telemetry,
                ..
            } = &mut *st;
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
                    let met = slot
                        .spec
                        .policy
                        .met(&report, slot.batches_run, slot.first_step);
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
                ready_or_park(&shared, &mut st, id, "report buffer full");
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

/// Rebuild session `id` for [`Server::recover`]: its driver from the
/// origin request (through `factory`, as the wire `submit` builds one),
/// then its logged history replayed through the driver. The error says why
/// the session cannot be restored.
fn rebuild(
    durable: &DurableStore,
    factory: &crate::tcp::SubmitFactory,
    id: u64,
    origin: &str,
) -> Result<(IolapDriver, SessionSpec, ResumeOutcome), String> {
    let req = crate::wire::parse(origin).map_err(|e| format!("origin unparsable: {e}"))?;
    let (mut driver, spec) = factory(&req).map_err(|e| format!("factory rejected origin: {e}"))?;
    let events = durable.replay_events(id, driver.stream_schema())?;
    let outcome = driver
        .resume_replay(&events)
        .map_err(|e| format!("replay failed: {e}"))?;
    Ok((driver, spec, outcome))
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
            durable: durable.clone(),
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
                telemetry: Telemetry::with_store(durable),
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
        trace_mark(
            self.shared.tracer.as_deref(),
            "sess.submit",
            id,
            &format!("label={}", spec.label),
        );
        // Record the admission durably before the session can be stepped
        // (state lock held, so no worker can spill — let alone finish —
        // the session ahead of its 'S' record).
        if let (Some(durable), Some(origin)) = (&self.shared.durable, origin) {
            let _ = durable.log_submit(id, origin);
        }
        register(&mut st, id, Slot::new(driver, spec, None));
        place(&self.shared, &mut st, id, "direct");
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
        for (&id, slot) in st.sessions.iter_mut() {
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
        let entries = match durable.manifest() {
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
            let (driver, spec, outcome) = match rebuild(&durable, factory, id, &entry.origin) {
                Ok(rebuilt) => rebuilt,
                Err(why) => {
                    report.skipped.push((id, why));
                    continue;
                }
            };
            report.replayed_batches += outcome.replayed_batches;
            report.reapplied_appends += outcome.reapplied_appends;
            report.stale_digests += outcome.stale_digests;

            let mut st = lock(&self.shared);
            if st.shutdown {
                report
                    .skipped
                    .push((id, "server shutting down".to_string()));
                continue;
            }
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
            let slot = Slot::new(driver, spec, Some(outcome));
            let met = slot
                .reports
                .back()
                .is_some_and(|r| slot.spec.policy.met(r, batches_run, slot.first_step));
            register(&mut st, id, slot);
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
                finish(&self.shared, &mut st, id, end);
            } else {
                place(&self.shared, &mut st, id, "restored");
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
        match self.shared.durable.as_ref().and_then(|d| d.finished(id)) {
            Some(end) => ResumeStatus::Finished(end),
            None => ResumeStatus::Unknown,
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServerStats {
        lock(&self.shared).stats()
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
        crate::telemetry::render_exposition(&st.telemetry, &st.stats(), canonical)
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
