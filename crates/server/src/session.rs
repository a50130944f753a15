//! Client-facing session surface: specs, lifecycle states, handles.
//!
//! A session wraps one `IolapDriver` behind the lifecycle
//! `Queued → Running → Draining → Done` (or the terminal `Cancelled` /
//! `Failed`). Clients never touch the driver: they hold a [`SessionHandle`]
//! and poll ([`SessionHandle::try_recv`]) or block with a bound
//! ([`SessionHandle::recv_timeout`]) for per-batch reports, cancel at any
//! point (including mid-recovery — the in-flight batch, replays and all,
//! runs to its boundary and its report is still delivered), and read a
//! [`SessionSummary`] at the end.
//!
//! Every blocking client call in this module is timeout-bounded
//! (`Condvar::wait_timeout` in a deadline loop) — srclint rule L006 rejects
//! unbounded parks anywhere outside the scheduler's worker-pool core.

use crate::policy::StopPolicy;
use crate::scheduler::Shared;
use iolap_core::BatchReport;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Where a session is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionState {
    /// Admitted; waiting for a slot or for its first batch to be scheduled.
    Queued,
    /// At least one batch dispatched; the driver still has work.
    Running,
    /// All compute finished (completed, target met) but undelivered reports
    /// remain in the buffer. The slot and driver memory are already freed.
    Draining,
    /// Finished and fully drained.
    Done,
    /// Cancelled by the client or shed by admission control.
    Cancelled,
    /// The driver returned an error or panicked through recovery.
    Failed,
}

impl SessionState {
    /// Stable lowercase name (wire protocol, reports).
    pub fn as_str(&self) -> &'static str {
        match self {
            SessionState::Queued => "queued",
            SessionState::Running => "running",
            SessionState::Draining => "draining",
            SessionState::Done => "done",
            SessionState::Cancelled => "cancelled",
            SessionState::Failed => "failed",
        }
    }

    /// No further reports will ever be produced. Reports already buffered
    /// (e.g. the in-flight batch of a cancelled session) remain receivable
    /// via `try_recv`/`recv_timeout`.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            SessionState::Done | SessionState::Cancelled | SessionState::Failed
        )
    }

    /// No further compute will happen (terminal, or draining a buffer).
    pub fn is_finished(&self) -> bool {
        self.is_terminal() || matches!(self, SessionState::Draining)
    }
}

impl fmt::Display for SessionState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a session ended (more detail than the terminal [`SessionState`]).
#[derive(Clone, Debug, PartialEq)]
pub enum SessionEnd {
    /// Every mini-batch ran; the final answer is exact.
    Completed,
    /// The [`StopPolicy`] was satisfied after `batches` batches, strictly
    /// before full-data completion.
    TargetMet {
        /// Number of batches delivered when the policy fired.
        batches: usize,
    },
    /// Cancelled by the client.
    Cancelled,
    /// Shed from the wait queue by the memory-ceiling EDF policy.
    Shed,
    /// Driver error or panic; the message is the driver's own.
    Failed(String),
}

impl SessionEnd {
    /// Stable lowercase label (wire protocol, reports).
    pub fn label(&self) -> &'static str {
        match self {
            SessionEnd::Completed => "completed",
            SessionEnd::TargetMet { .. } => "target_met",
            SessionEnd::Cancelled => "cancelled",
            SessionEnd::Shed => "shed",
            SessionEnd::Failed(_) => "failed",
        }
    }
}

/// Everything a client declares about a session at submit time.
#[derive(Clone, Debug)]
pub struct SessionSpec {
    /// Human-readable label carried through reports and the load generator.
    pub label: String,
    /// When to retire the session early (default: run to completion).
    pub policy: StopPolicy,
    /// Scheduling priority: *lower is more urgent* (0 preempts 1 at every
    /// batch boundary). Within a priority class scheduling is round-robin.
    pub priority: u8,
    /// Optional deadline used **only** by the memory-ceiling shedding
    /// policy (earliest deadline shed first); it does not stop a running
    /// session — use [`StopPolicy::Deadline`] for that. Expressed relative
    /// to submit time.
    pub deadline: Option<Duration>,
}

impl Default for SessionSpec {
    fn default() -> Self {
        SessionSpec {
            label: String::new(),
            policy: StopPolicy::complete(),
            priority: 1,
            deadline: None,
        }
    }
}

impl SessionSpec {
    /// Spec with a label and all defaults.
    pub fn named(label: impl Into<String>) -> Self {
        SessionSpec {
            label: label.into(),
            ..SessionSpec::default()
        }
    }

    /// Set the stop policy.
    pub fn policy(mut self, policy: StopPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Set the priority (lower = more urgent).
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Set the shedding deadline.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Why `Server::submit` refused a session. Admission *rejects explicitly*
/// rather than blocking the caller — backpressure is visible, never silent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// Live slots and the wait queue are both full.
    QueueFull {
        /// Sessions currently holding live slots.
        live: usize,
        /// Sessions currently waiting for a slot.
        queued: usize,
    },
    /// The server is shutting down.
    ShuttingDown,
    /// Every session id has been handed out (`u64::MAX` is never one);
    /// reachable only after recovering a manifest that names ids near it.
    IdsExhausted,
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::QueueFull { live, queued } => write!(
                f,
                "admission rejected: {live} live sessions and {queued} queued (both at capacity)"
            ),
            AdmitError::ShuttingDown => write!(f, "admission rejected: server is shutting down"),
            AdmitError::IdsExhausted => write!(f, "admission rejected: session ids exhausted"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// End-of-life snapshot of a session (also readable mid-flight).
#[derive(Clone, Debug)]
pub struct SessionSummary {
    /// Server-assigned session id (admission order).
    pub id: u64,
    /// The label from the [`SessionSpec`].
    pub label: String,
    /// Current lifecycle state.
    pub state: SessionState,
    /// End reason, once finished.
    pub end: Option<SessionEnd>,
    /// Batches delivered so far.
    pub batches_run: usize,
    /// Total mini-batches the driver was built with.
    pub total_batches: usize,
    /// Reports buffered but not yet received by the client.
    pub pending_reports: usize,
    /// Wall-clock from submit to finish (`None` while still working) —
    /// the "time to target" axis of the serving benchmark.
    pub elapsed: Option<Duration>,
    /// Global finish-order sequence number (deterministic under one
    /// worker; used by the shed-order tests).
    pub end_seq: Option<u64>,
    /// Last memory-accounting reading (checkpoints + operator state).
    pub mem_bytes: usize,
}

impl SessionSummary {
    /// True when the session stopped strictly before full-data completion
    /// because its accuracy/latency contract was met.
    pub fn stopped_early(&self) -> bool {
        matches!(self.end, Some(SessionEnd::TargetMet { .. }))
    }
}

/// A client's handle to one submitted session. Cloneable and `Send`; all
/// methods are safe to call from any thread at any lifecycle point.
#[derive(Clone)]
pub struct SessionHandle {
    pub(crate) shared: Arc<Shared>,
    pub(crate) id: u64,
}

impl SessionHandle {
    /// Server-assigned session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Pop the next buffered batch report, if any (never blocks).
    pub fn try_recv(&self) -> Option<BatchReport> {
        self.shared.pop_report(self.id)
    }

    /// Block (bounded) for the next batch report. Returns `None` when the
    /// timeout elapses *or* when the session is terminal and drained — use
    /// [`SessionHandle::state`] to tell the two apart.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<BatchReport> {
        self.shared.recv_report(self.id, timeout)
    }

    /// Collect every remaining report until the session is terminal,
    /// waiting at most `step_timeout` for each. Stops early (returning what
    /// it has) if a wait times out with no progress and no finished state —
    /// a liveness escape hatch, not the normal exit.
    pub fn drain(&self, step_timeout: Duration) -> Vec<BatchReport> {
        let mut out = Vec::new();
        loop {
            match self.recv_timeout(step_timeout) {
                Some(r) => out.push(r),
                None => {
                    let state = self.state();
                    if state.is_terminal() {
                        return out;
                    }
                    if !state.is_finished() {
                        // Timed out while the session still runs: keep a
                        // report that landed since the wait, else give the
                        // caller what exists rather than spinning forever.
                        match self.try_recv() {
                            Some(r) => out.push(r),
                            None => return out,
                        }
                    }
                }
            }
        }
    }

    /// Request cancellation. Queued (or buffered-waiting) sessions die
    /// immediately; a session whose batch is mid-step — including one
    /// replaying a fault-recovery cascade — finishes that batch boundary,
    /// delivers its report, and then terminalizes.
    pub fn cancel(&self) {
        self.shared.cancel(self.id);
    }

    /// Current lifecycle state.
    pub fn state(&self) -> SessionState {
        self.shared.session_state(self.id)
    }

    /// Block (bounded) until no further compute will happen (`Draining` or
    /// terminal). Returns whether that point was reached within `timeout`.
    pub fn join(&self, timeout: Duration) -> bool {
        self.shared.wait_finished(self.id, timeout)
    }

    /// Snapshot of the session's bookkeeping.
    pub fn summary(&self) -> SessionSummary {
        self.shared.summary(self.id)
    }
}

impl fmt::Debug for SessionHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionHandle")
            .field("id", &self.id)
            .finish()
    }
}
