//! Newline-delimited JSON front-end over `std::net::TcpListener`.
//!
//! One request object per line, one response object per line:
//!
//! ```text
//! → {"op":"submit","query":"C2","batches":8,"label":"u1","policy":{"kind":"relative_ci","target":0.05}}
//! ← {"ok":true,"session":0}
//! → {"op":"poll","session":0,"max":4}
//! ← {"ok":true,"state":"running","batches_run":2,"reports":[{...},{...}]}
//! → {"op":"cancel","session":0}
//! ← {"ok":true}
//! ```
//!
//! The server crate knows nothing about workloads or SQL catalogs; a
//! [`SubmitFactory`] closure provided by the embedder (the `experiments`
//! binary wires the built-in workloads in) turns the raw `submit` request
//! into an `IolapDriver` plus a [`SessionSpec`]. Everything protocol-level
//! — `poll`, `summary`, `cancel`, `stats`, `metrics`, and the durable ops
//! `append` (stream rows into a live table: `{"op":"append","table":T,
//! "rows":[[...],...]}`) and `resume` (re-attach to a session restored
//! from the durable log after a restart) — is handled here.
//!
//! [`handle_request`] is the transport-free core (one request line in, one
//! response line out); [`serve`] is the accept loop that feeds it. Socket
//! reads block on the network by design, so this module is *not* part of
//! the srclint L006 scheduler/admission hot-path scope.

use crate::scheduler::Server;
use crate::session::{AdmitError, SessionHandle, SessionSpec, SessionSummary};
use crate::wire::{parse, JVal};
use iolap_core::{BatchReport, IolapDriver};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Builds a driver + spec from a raw `submit` request object. Errors
/// become `{"ok":false,"kind":"bad_request"}` responses.
pub type SubmitFactory =
    Arc<dyn Fn(&JVal) -> Result<(IolapDriver, SessionSpec), String> + Send + Sync>;

/// Parse the protocol-level session knobs (`label`, `priority`,
/// `deadline_ms`, `policy`) out of a submit request, for factories that
/// only want to construct the driver. Unknown policy kinds fall back to
/// run-to-completion.
pub fn spec_from_request(req: &JVal) -> SessionSpec {
    let mut spec = SessionSpec::named(
        req.get("label")
            .and_then(JVal::as_str)
            .unwrap_or_default()
            .to_string(),
    );
    if let Some(p) = req.get("priority").and_then(JVal::as_u64) {
        spec.priority = p.min(u8::MAX as u64) as u8;
    }
    if let Some(ms) = req.get("deadline_ms").and_then(JVal::as_u64) {
        spec.deadline = Some(Duration::from_millis(ms));
    }
    if let Some(policy) = req.get("policy") {
        let kind = policy.get("kind").and_then(JVal::as_str).unwrap_or("");
        spec.policy = match kind {
            // `usize::try_from`, not `as usize`: on a 32-bit target a
            // count above 2^32 must clamp to "run to completion", not
            // truncate to an arbitrary small batch budget.
            "batches" => crate::StopPolicy::Batches(
                policy
                    .get("n")
                    .and_then(JVal::as_u64)
                    .map(|n| usize::try_from(n).unwrap_or(usize::MAX))
                    .unwrap_or(usize::MAX),
            ),
            "relative_ci" => crate::StopPolicy::RelativeCI {
                target: policy.get("target").and_then(JVal::as_f64).unwrap_or(0.05),
                confidence: policy
                    .get("confidence")
                    .and_then(JVal::as_f64)
                    .unwrap_or(0.95),
            },
            "deadline" => crate::StopPolicy::Deadline(Duration::from_millis(
                policy.get("ms").and_then(JVal::as_u64).unwrap_or(1_000),
            )),
            _ => crate::StopPolicy::complete(),
        };
    }
    spec
}

/// A `relative_ci` contract is judged on the driver's bootstrap intervals,
/// so its confidence level must be the one the driver computes them at.
fn confidence_matches(driver: &IolapDriver, spec: &SessionSpec) -> bool {
    !matches!(spec.policy, crate::StopPolicy::RelativeCI { confidence, .. }
        if confidence != driver.config().confidence)
}

fn err_response(kind: &str, msg: &str) -> String {
    JVal::obj(vec![
        ("ok", JVal::Bool(false)),
        ("kind", JVal::str(kind)),
        ("error", JVal::str(msg)),
    ])
    .render()
}

/// One batch report as a wire object: identity, convergence, and the
/// visible rows. `max_rel_ci` is `null` when the batch carries no error
/// estimates (so accuracy-watching clients see the absence explicitly).
pub fn report_json(r: &BatchReport) -> String {
    report_jval(r).render()
}

fn report_jval(r: &BatchReport) -> JVal {
    let names = r.result.names.iter().map(|n| n.as_str().into()).collect();
    let rows = r
        .result
        .relation
        .rows()
        .iter()
        .map(|row| JVal::Arr(row.values.iter().map(JVal::from).collect()))
        .collect();
    JVal::obj(vec![
        ("batch", r.batch.into()),
        ("fraction", r.fraction.into()),
        ("elapsed_ms", (r.elapsed.as_secs_f64() * 1e3).into()),
        ("recovered", r.recovered.into()),
        ("max_rel_ci", r.result.max_relative_ci_halfwidth().into()),
        ("names", JVal::Arr(names)),
        ("rows", JVal::Arr(rows)),
    ])
}

fn summary_json(s: &SessionSummary) -> JVal {
    JVal::obj(vec![
        ("id", s.id.into()),
        ("label", s.label.as_str().into()),
        ("state", s.state.as_str().into()),
        ("end", s.end.as_ref().map(|e| e.label()).into()),
        ("batches_run", s.batches_run.into()),
        ("total_batches", s.total_batches.into()),
        ("pending_reports", s.pending_reports.into()),
        (
            "elapsed_ms",
            s.elapsed.map(|d| d.as_secs_f64() * 1e3).into(),
        ),
        ("mem_bytes", s.mem_bytes.into()),
    ])
}

/// The `metrics` op's structured twin of the text exposition: per-session
/// convergence/SLO state, tenant list, burn counters.
fn telemetry_summary_json(t: &crate::telemetry::Telemetry) -> JVal {
    let sessions = t
        .sessions()
        .iter()
        .map(|(id, s)| {
            JVal::obj(vec![
                ("id", (*id).into()),
                ("tenant", s.label.as_str().into()),
                ("batches", s.batches.into()),
                ("total_batches", s.total_batches.into()),
                ("rel_ci", s.last_rel_ci().map(|(_, ci)| ci).into()),
                ("predicted_remaining", s.predicted_remaining().into()),
                ("end", s.end.into()),
            ])
        })
        .collect();
    let slo = t.slo();
    JVal::obj(vec![
        ("sessions", JVal::Arr(sessions)),
        (
            "tenants",
            JVal::Arr(t.tenants().keys().map(JVal::str).collect()),
        ),
        (
            "slo",
            JVal::obj(vec![
                ("ci_sessions", slo.ci_sessions.into()),
                ("ci_met", slo.ci_met.into()),
                ("ci_batches", slo.ci_batches.into()),
                ("ci_batches_saved", slo.ci_batches_saved.into()),
                ("deadline_sessions", slo.deadline_sessions.into()),
                ("deadline_met", slo.deadline_met.into()),
                ("deadline_overrun", slo.deadline_overrun.into()),
            ]),
        ),
    ])
}

/// Handle one request line, returning one response line (no trailing
/// newline). `sessions` is the connection's handle table: sessions are
/// scoped to the connection that submitted them.
pub fn handle_request(
    server: &Server,
    factory: &SubmitFactory,
    sessions: &mut BTreeMap<u64, SessionHandle>,
    line: &str,
) -> String {
    let req = match parse(line) {
        Ok(v) => v,
        Err(e) => return err_response("bad_json", &e.to_string()),
    };
    let op = req.get("op").and_then(JVal::as_str).unwrap_or("");
    match op {
        "submit" => match factory(&req) {
            Err(msg) => err_response("bad_request", &msg),
            Ok((driver, spec)) if !confidence_matches(&driver, &spec) => {
                let level = driver.config().confidence;
                err_response("bad_request", &format!("policy confidence must be {level}"))
            }
            Ok((driver, spec)) => match server.submit_with_origin(driver, spec, Some(line)) {
                Ok(handle) => {
                    let id = handle.id();
                    sessions.insert(id, handle);
                    JVal::obj(vec![("ok", JVal::Bool(true)), ("session", id.into())]).render()
                }
                Err(AdmitError::QueueFull { live, queued }) => err_response(
                    "queue_full",
                    &format!("{live} live, {queued} queued — admission rejected"),
                ),
                Err(e @ AdmitError::ShuttingDown) => err_response("shutting_down", &e.to_string()),
                Err(e @ AdmitError::IdsExhausted) => err_response("ids_exhausted", &e.to_string()),
            },
        },
        "append" => {
            let Some(table) = req.get("table").and_then(JVal::as_str) else {
                return err_response("bad_request", "append needs a \"table\" string");
            };
            let Some(rows @ JVal::Arr(_)) = req.get("rows") else {
                return err_response("bad_request", "append needs a \"rows\" array of arrays");
            };
            if let JVal::Arr(items) = rows {
                if items.is_empty() {
                    return err_response("bad_request", "append rows array is empty");
                }
                if items.iter().any(|r| !matches!(r, JVal::Arr(_))) {
                    return err_response("bad_request", "append rows must each be an array");
                }
            }
            // Re-render the parsed rows so the queued (and durably logged)
            // form is canonical regardless of client whitespace.
            let reached = server.append_rows(table, &rows.render());
            if reached == 0 {
                return err_response(
                    "unknown_table",
                    &format!("no live session streams table \"{table}\""),
                );
            }
            JVal::obj(vec![("ok", JVal::Bool(true)), ("sessions", reached.into())]).render()
        }
        "resume" => {
            let Some(id) = req.get("session").and_then(JVal::as_u64) else {
                return err_response("bad_request", "resume needs a \"session\" id");
            };
            match server.resume_session(id) {
                crate::scheduler::ResumeStatus::Attached(handle) => {
                    let s = handle.summary();
                    sessions.insert(id, handle);
                    JVal::obj(vec![
                        ("ok", JVal::Bool(true)),
                        ("session", id.into()),
                        ("state", s.state.as_str().into()),
                        ("batches_run", s.batches_run.into()),
                        ("pending_reports", s.pending_reports.into()),
                    ])
                    .render()
                }
                crate::scheduler::ResumeStatus::Finished(end) => err_response(
                    "session_finished",
                    &format!("session {id} already finished (end={end}); nothing to resume"),
                ),
                crate::scheduler::ResumeStatus::Unknown => {
                    err_response("unknown_session", "no restorable session with that id")
                }
            }
        }
        "poll" | "cancel" | "summary" => {
            let Some(handle) = req
                .get("session")
                .and_then(JVal::as_u64)
                .and_then(|id| sessions.get(&id))
            else {
                return err_response("unknown_session", "no such session on this connection");
            };
            match op {
                "poll" => {
                    let max = req.get("max").and_then(JVal::as_u64).unwrap_or(16) as usize;
                    let reports = std::iter::from_fn(|| handle.try_recv())
                        .take(max)
                        .map(|r| report_jval(&r))
                        .collect();
                    let s = handle.summary();
                    JVal::obj(vec![
                        ("ok", JVal::Bool(true)),
                        ("state", s.state.as_str().into()),
                        ("batches_run", s.batches_run.into()),
                        ("reports", JVal::Arr(reports)),
                    ])
                    .render()
                }
                "cancel" => {
                    handle.cancel();
                    JVal::obj(vec![("ok", JVal::Bool(true))]).render()
                }
                _ => JVal::obj(vec![
                    ("ok", JVal::Bool(true)),
                    ("summary", summary_json(&handle.summary())),
                ])
                .render(),
            }
        }
        "stats" => {
            let s = server.stats();
            JVal::obj(vec![
                ("ok", JVal::Bool(true)),
                (
                    "stats",
                    JVal::obj(vec![
                        ("live", s.live.into()),
                        ("queued", s.queued.into()),
                        ("admitted", s.admitted.into()),
                        ("rejected", s.rejected.into()),
                        ("shed", s.shed.into()),
                        ("mem_bytes", s.mem_bytes.into()),
                    ]),
                ),
            ])
            .render()
        }
        "metrics" => {
            let canonical = req
                .get("canonical")
                .and_then(JVal::as_bool)
                .unwrap_or(false);
            JVal::obj(vec![
                ("ok", JVal::Bool(true)),
                ("exposition", JVal::str(server.exposition(canonical))),
                ("summary", telemetry_summary_json(&server.telemetry())),
            ])
            .render()
        }
        _ => err_response("bad_request", "unknown op"),
    }
}

fn handle_conn(stream: TcpStream, server: Arc<Server>, factory: SubmitFactory) {
    let mut sessions: BTreeMap<u64, SessionHandle> = BTreeMap::new();
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        // One write per response line. Written as two segments, the
        // newline waits under Nagle for the ACK of the first, which a
        // plain client delays by up to ~40 ms.
        let mut response = handle_request(&server, &factory, &mut sessions, line.trim());
        response.push('\n');
        if writer.write_all(response.as_bytes()).is_err() {
            break;
        }
    }
    // Connection gone: cancel what it left running so slots free up.
    for handle in sessions.values() {
        if !handle.state().is_finished() {
            handle.cancel();
        }
    }
}

/// Accept loop: one thread per connection, each feeding
/// [`handle_request`]. Runs until the listener errors (e.g. is dropped).
pub fn serve(listener: TcpListener, server: Arc<Server>, factory: SubmitFactory) {
    for stream in listener.incoming() {
        let Ok(stream) = stream else { break };
        let _ = stream.set_nodelay(true);
        let server = Arc::clone(&server);
        let factory = Arc::clone(&factory);
        std::thread::spawn(move || handle_conn(stream, server, factory));
    }
}
