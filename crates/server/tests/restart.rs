//! Kill-and-recover integration: the crash-point matrix.
//!
//! A durable server is killed (dropped without a clean finish) at every
//! batch boundary of a session of every built-in Conviva query, restarted
//! over the same log directory,
//! and the session replayed through [`Server::recover`]. The pinned
//! contract is the tentpole invariant: the report stream a resumed
//! client sees is **byte-identical** (modulo the masked wall clock) to
//! an uninterrupted run, and recovery metrics stay monotone — a restart
//! never loses or rewrites progress, it only re-derives it.

use iolap_core::{IolapConfig, IolapDriver};
use iolap_engine::plan_sql;
use iolap_server::tcp::{handle_request, SubmitFactory};
use iolap_server::wire::{parse, JVal};
use iolap_server::{Server, ServerConfig, SessionHandle};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const ROWS: usize = 240;
const BATCHES: usize = 4;

/// Factory over a pinned Conviva catalog, identical on every restart —
/// recovery re-derives drivers from origin requests, so determinism of
/// this closure *is* the recovery contract.
fn factory() -> SubmitFactory {
    let catalog = iolap_workloads::conviva_catalog(ROWS, 17);
    let registry = iolap_workloads::conviva_registry();
    let queries = iolap_workloads::conviva_queries();
    Arc::new(move |req: &JVal| {
        let id = req
            .get("query")
            .and_then(JVal::as_str)
            .ok_or_else(|| "missing query".to_string())?;
        let q = queries
            .iter()
            .find(|q| q.id == id)
            .ok_or_else(|| format!("unknown query {id}"))?;
        let pq = plan_sql(q.sql, &catalog, &registry).map_err(|e| e.to_string())?;
        let mut cfg = IolapConfig::with_batches(BATCHES).trials(10).seed(17);
        cfg.partition_mode = iolap_relation::PartitionMode::RowShuffle;
        let driver = IolapDriver::from_plan(&pq, &catalog, q.stream_table, cfg)
            .map_err(|e| e.to_string())?;
        Ok((driver, iolap_server::tcp::spec_from_request(req)))
    })
}

fn scratch_dir(name: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SCRATCH: AtomicUsize = AtomicUsize::new(0);
    let n = SCRATCH.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("iolap-restart-{}-{n}-{name}", std::process::id()))
}

/// `workers=1, report_buffer=1` parks the lone worker after every batch,
/// so "killed at batch boundary `m`" is a deterministic machine state:
/// `m` batches stepped and logged, `m-1` reports delivered.
fn cfg(dir: &Path) -> ServerConfig {
    ServerConfig::with_workers(1)
        .report_buffer(1)
        .durable(dir.to_path_buf())
}

/// Re-render a report with `elapsed_ms` pinned to 0 so streams from
/// different processes compare bytewise.
fn masked(r: &JVal) -> String {
    let mut pinned = r.clone();
    if let JVal::Obj(members) = &mut pinned {
        for (k, v) in members.iter_mut() {
            if k == "elapsed_ms" {
                *v = JVal::Num(0.0);
            }
        }
    }
    pinned.render()
}

fn submit(
    server: &Server,
    f: &SubmitFactory,
    sessions: &mut BTreeMap<u64, SessionHandle>,
    query: &str,
) -> u64 {
    let resp = handle_request(
        server,
        f,
        sessions,
        &format!(r#"{{"op":"submit","query":"{query}","label":"crash"}}"#),
    );
    let v = parse(&resp).unwrap();
    assert_eq!(v.get("ok").and_then(JVal::as_bool), Some(true), "{resp}");
    v.get("session").and_then(JVal::as_u64).unwrap()
}

/// Poll with `max:1` until exactly one report arrives; panics if the
/// session ends first.
fn poll_one(
    server: &Server,
    f: &SubmitFactory,
    sessions: &mut BTreeMap<u64, SessionHandle>,
    id: u64,
) -> String {
    for _ in 0..2000 {
        let resp = handle_request(
            server,
            f,
            sessions,
            &format!(r#"{{"op":"poll","session":{id},"max":1}}"#),
        );
        let v = parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(JVal::as_bool), Some(true), "{resp}");
        if let Some(JVal::Arr(rs)) = v.get("reports") {
            if let Some(r) = rs.first() {
                return masked(r);
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("no report arrived for session {id}");
}

/// Drain the session to `done`, returning every masked report line.
fn poll_to_done(
    server: &Server,
    f: &SubmitFactory,
    sessions: &mut BTreeMap<u64, SessionHandle>,
    id: u64,
) -> Vec<String> {
    let mut lines = Vec::new();
    for _ in 0..4000 {
        let resp = handle_request(
            server,
            f,
            sessions,
            &format!(r#"{{"op":"poll","session":{id},"max":1}}"#),
        );
        let v = parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(JVal::as_bool), Some(true), "{resp}");
        if let Some(JVal::Arr(rs)) = v.get("reports") {
            for r in rs {
                lines.push(masked(r));
            }
        }
        if v.get("state").and_then(JVal::as_str) == Some("done") {
            return lines;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("session {id} never finished");
}

/// Block until the parked worker has buffered one report and stepped
/// `batches` batches in total — the deterministic crash point.
fn wait_for_boundary(handle: &SessionHandle, batches: usize) {
    for _ in 0..2000 {
        let s = handle.summary();
        if s.pending_reports == 1 && s.batches_run == batches {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let s = handle.summary();
    panic!(
        "never reached boundary {batches}: batches_run={} pending={}",
        s.batches_run, s.pending_reports
    );
}

fn uninterrupted_baseline(f: &SubmitFactory, query: &str) -> Vec<String> {
    let dir = scratch_dir(&format!("{query}-baseline"));
    let server = Server::new(cfg(&dir));
    let mut sessions = BTreeMap::new();
    let id = submit(&server, f, &mut sessions, query);
    let lines = poll_to_done(&server, f, &mut sessions, id);
    assert_eq!(lines.len(), BATCHES, "{query}");
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    lines
}

/// The matrix itself, for every built-in Conviva query: kill at every
/// batch boundary `m in 1..BATCHES`, restart, recover, resume — the
/// pre-crash prefix and the full resumed stream must both match the
/// uninterrupted baseline bytewise.
#[test]
fn crash_at_every_batch_boundary_preserves_the_report_stream() {
    let f = factory();
    for q in iolap_workloads::conviva_queries() {
        crash_matrix(&f, q.id);
    }
}

fn crash_matrix(f: &SubmitFactory, query: &str) {
    let baseline = uninterrupted_baseline(f, query);

    for m in 1..BATCHES {
        let cell = format!("{query} cell {m}");
        let dir = scratch_dir(&format!("{query}-cell{m}"));
        let pre = {
            let server = Server::new(cfg(&dir));
            let mut sessions = BTreeMap::new();
            let id = submit(&server, f, &mut sessions, query);
            let mut pre = Vec::new();
            for k in 0..m {
                // Each delivered report un-parks the worker for exactly
                // one more batch; stop one short so report `m-1` is still
                // buffered (spilled, never delivered) when we kill.
                wait_for_boundary(sessions.get(&id).unwrap(), k + 1);
                if k + 1 < m {
                    pre.push(poll_one(&server, f, &mut sessions, id));
                }
            }
            pre
            // `server` dropped here without finish(): the kill. No 'D'
            // record is written; the log ends at batch m-1's checkpoint.
        };
        assert_eq!(pre, baseline[..m - 1], "{cell}: pre-crash prefix");

        let server = Server::new(cfg(&dir));
        let recovered = server.recover(f);
        assert_eq!(recovered.resumed.len(), 1, "{cell}: {recovered:?}");
        assert_eq!(recovered.replayed_batches, m, "{cell}");
        assert_eq!(recovered.stale_digests, 0, "{cell}");
        let id = recovered.resumed[0];

        let mut sessions = BTreeMap::new();
        let resp = handle_request(
            &server,
            f,
            &mut sessions,
            &format!(r#"{{"op":"resume","session":{id}}}"#),
        );
        let v = parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(JVal::as_bool), Some(true), "{resp}");
        // Monotone: a restart never loses batches — the resumed frontier
        // equals the crash boundary, and every replayed report is
        // re-deliverable.
        assert_eq!(v.get("batches_run").and_then(JVal::as_u64), Some(m as u64));
        assert_eq!(
            v.get("pending_reports").and_then(JVal::as_u64),
            Some(m as u64)
        );
        let expo = server.exposition(true);
        assert!(
            expo.contains("iolap_durable_resumed_sessions_total 1"),
            "{cell}: {expo}"
        );
        assert!(
            expo.contains(&format!("iolap_durable_replayed_batches_total {m}")),
            "{cell}"
        );

        let post = poll_to_done(&server, f, &mut sessions, id);
        assert_eq!(post, baseline, "{cell}: resumed stream diverged");
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Killing the server *between* recovery replay and any new progress
/// (a crash mid-recovery, after the log was read but before the session
/// advanced) must itself be recoverable: the log is replay-idempotent.
#[test]
fn restart_during_recovery_replay_is_idempotent() {
    let f = factory();
    let baseline = uninterrupted_baseline(&f, "C3");
    let m = 2;

    let dir = scratch_dir("double");
    let id = {
        let server = Server::new(cfg(&dir));
        let mut sessions = BTreeMap::new();
        let id = submit(&server, &f, &mut sessions, "C3");
        wait_for_boundary(sessions.get(&id).unwrap(), 1);
        let _ = poll_one(&server, &f, &mut sessions, id);
        wait_for_boundary(sessions.get(&id).unwrap(), m);
        id
    };

    // First restart: recover, then kill again before anything is polled.
    {
        let server = Server::new(cfg(&dir));
        let recovered = server.recover(&f);
        assert_eq!(recovered.resumed, vec![id], "{recovered:?}");
        assert_eq!(recovered.replayed_batches, m);
    }

    // Second restart over the identical log: same frontier, same stream.
    let server = Server::new(cfg(&dir));
    let recovered = server.recover(&f);
    assert_eq!(recovered.resumed, vec![id], "{recovered:?}");
    assert_eq!(recovered.replayed_batches, m);
    let mut sessions = BTreeMap::new();
    let resp = handle_request(
        &server,
        &f,
        &mut sessions,
        &format!(r#"{{"op":"resume","session":{id}}}"#),
    );
    assert_eq!(
        parse(&resp).unwrap().get("ok").and_then(JVal::as_bool),
        Some(true),
        "{resp}"
    );
    let post = poll_to_done(&server, &f, &mut sessions, id);
    assert_eq!(post, baseline);
}

/// The final matrix cell: a session that *completed* before the kill has
/// its 'D' record on disk; restart must not resurrect it, and `resume`
/// reports it finished rather than unknown.
#[test]
fn completed_sessions_stay_finished_across_restart() {
    let f = factory();
    let dir = scratch_dir("done");
    let id = {
        let server = Server::new(cfg(&dir));
        let mut sessions = BTreeMap::new();
        let id = submit(&server, &f, &mut sessions, "C3");
        let lines = poll_to_done(&server, &f, &mut sessions, id);
        assert_eq!(lines.len(), BATCHES);
        id
    };

    let server = Server::new(cfg(&dir));
    let recovered = server.recover(&f);
    assert!(recovered.resumed.is_empty(), "{recovered:?}");
    assert!(recovered.skipped.is_empty(), "{recovered:?}");
    let mut sessions = BTreeMap::new();
    let resp = handle_request(
        &server,
        &f,
        &mut sessions,
        &format!(r#"{{"op":"resume","session":{id}}}"#),
    );
    let v = parse(&resp).unwrap();
    assert_eq!(
        v.get("kind").and_then(JVal::as_str),
        Some("session_finished"),
        "{resp}"
    );
    // Recovered ids stay reserved: a fresh submission must not collide
    // with the finished session's on-disk log.
    let fresh = submit(&server, &f, &mut sessions, "C3");
    assert!(fresh > id, "fresh id {fresh} collides with recovered {id}");
}

/// Appends are part of the durable event order: a session killed *after*
/// an append was applied and logged must replay the append at the same
/// position and resume to the identical grown stream.
#[test]
fn appends_survive_restart_at_their_original_position() {
    let f = factory();
    let appended = r#"[[901,1,"cdn-x","SFO","US","isp-a","vod",12.5,3.5,1.25,2400,0],[902,2,"cdn-y","LAX","US","isp-b","live",2.5,7.25,0.5,3200,1]]"#;

    // Uninterrupted grown run: append lands while parked after batch 0.
    let grown = {
        let dir = scratch_dir("grown-base");
        let server = Server::new(cfg(&dir));
        let mut sessions = BTreeMap::new();
        let id = submit(&server, &f, &mut sessions, "C3");
        wait_for_boundary(sessions.get(&id).unwrap(), 1);
        let resp = handle_request(
            &server,
            &f,
            &mut sessions,
            &format!(r#"{{"op":"append","table":"sessions","rows":{appended}}}"#),
        );
        assert_eq!(
            parse(&resp).unwrap().get("sessions").and_then(JVal::as_u64),
            Some(1),
            "{resp}"
        );
        let lines = poll_to_done(&server, &f, &mut sessions, id);
        assert_eq!(lines.len(), BATCHES + 1, "append adds one mini-batch");
        lines
    };

    // Same run, killed two batches after the append, then recovered.
    let dir = scratch_dir("grown-crash");
    let id = {
        let server = Server::new(cfg(&dir));
        let mut sessions = BTreeMap::new();
        let id = submit(&server, &f, &mut sessions, "C3");
        wait_for_boundary(sessions.get(&id).unwrap(), 1);
        let resp = handle_request(
            &server,
            &f,
            &mut sessions,
            &format!(r#"{{"op":"append","table":"sessions","rows":{appended}}}"#),
        );
        assert_eq!(
            parse(&resp).unwrap().get("sessions").and_then(JVal::as_u64),
            Some(1),
            "{resp}"
        );
        let _ = poll_one(&server, &f, &mut sessions, id);
        wait_for_boundary(sessions.get(&id).unwrap(), 2);
        let _ = poll_one(&server, &f, &mut sessions, id);
        wait_for_boundary(sessions.get(&id).unwrap(), 3);
        id
    };

    let server = Server::new(cfg(&dir));
    let recovered = server.recover(&f);
    assert_eq!(recovered.resumed, vec![id], "{recovered:?}");
    assert_eq!(recovered.replayed_batches, 3);
    assert_eq!(recovered.reapplied_appends, 1);
    let mut sessions = BTreeMap::new();
    let resp = handle_request(
        &server,
        &f,
        &mut sessions,
        &format!(r#"{{"op":"resume","session":{id}}}"#),
    );
    assert_eq!(
        parse(&resp).unwrap().get("ok").and_then(JVal::as_bool),
        Some(true),
        "{resp}"
    );
    let post = poll_to_done(&server, &f, &mut sessions, id);
    assert_eq!(post, grown, "replayed append diverged from live apply");
}

/// `(name, detail)` of every scheduler mark for session `id`, in order.
fn marks(server: &Server, id: u64) -> Vec<(&'static str, String)> {
    server
        .trace_events()
        .into_iter()
        .filter(|e| e.n == id && e.name.starts_with("sess."))
        .map(|e| (e.name, e.detail))
        .collect()
}

/// Recovery admits through the same placement as a submit: sessions past
/// `max_live` queue, and a session whose regenerated backlog already fills
/// the report buffer takes its slot parked — whether it is placed at
/// recovery or later from the queue — and resumes as the client drains.
/// Every stream still equals its uninterrupted run.
#[test]
fn recovery_beyond_max_live_queues_and_parks_full_backlogs() {
    let f = factory();
    let queries = ["C3", "C5", "C11", "C12"];
    // Batches each session has stepped (and logged) at the kill.
    let stepped = [2, 1, 2, 1];
    let dir = scratch_dir("placement");
    let ids: Vec<u64> = {
        let server = Server::new(cfg(&dir).max_live(queries.len()));
        let mut sessions = BTreeMap::new();
        let ids: Vec<u64> = queries
            .iter()
            .map(|q| submit(&server, &f, &mut sessions, q))
            .collect();
        for (&id, &m) in ids.iter().zip(&stepped) {
            for k in 0..m {
                wait_for_boundary(sessions.get(&id).unwrap(), k + 1);
                if k + 1 < m {
                    let _ = poll_one(&server, &f, &mut sessions, id);
                }
            }
        }
        ids
    };

    let server = Server::new(
        ServerConfig::with_workers(1)
            .report_buffer(2)
            .max_live(2)
            .durable(dir.clone())
            .trace(iolap_core::TraceMode::Journal),
    );
    let recovered = server.recover(&f);
    assert_eq!(recovered.resumed, ids, "{recovered:?}");
    let stats = server.stats();
    assert_eq!((stats.live, stats.queued), (2, 2), "{stats:?}");
    let park = (
        "sess.park",
        "restored with a full report buffer".to_string(),
    );
    assert!(marks(&server, ids[0]).contains(&park));
    assert!(marks(&server, ids[1]).contains(&("sess.admit", "restored".to_string())));
    for &id in &ids[2..] {
        let queued = ("sess.queued", "restored, waiting for a slot".to_string());
        assert!(marks(&server, id).contains(&queued));
    }

    let mut sessions = BTreeMap::new();
    for &id in &ids {
        let resp = handle_request(
            &server,
            &f,
            &mut sessions,
            &format!(r#"{{"op":"resume","session":{id}}}"#),
        );
        assert_eq!(
            parse(&resp).unwrap().get("ok").and_then(JVal::as_bool),
            Some(true),
            "{resp}"
        );
    }
    // Draining the live pair frees their slots: the third session (backlog
    // 2) is admitted parked, the fourth (backlog 1) straight to ready.
    let mut streams = BTreeMap::new();
    for &id in &ids {
        streams.insert(id, poll_to_done(&server, &f, &mut sessions, id));
    }
    assert!(marks(&server, ids[2]).contains(&park));
    assert!(marks(&server, ids[3]).contains(&("sess.admit", "from queue".to_string())));
    for (q, id) in queries.iter().zip(&ids) {
        assert_eq!(streams[id], uninterrupted_baseline(&f, q), "{q}");
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The store counts its own writes: in a fault-free run,
/// `iolap_durable_records_total` is exactly the number of frames the
/// segment scanner reads back from the manifest and every session log.
#[test]
fn durable_records_total_counts_every_frame_on_disk() {
    let f = factory();
    let dir = scratch_dir("records");
    let server = Server::new(cfg(&dir));
    let mut sessions = BTreeMap::new();
    let a = submit(&server, &f, &mut sessions, "C3");
    wait_for_boundary(sessions.get(&a).unwrap(), 1);
    let rows = r#"[[901,1,"cdn-x","SFO","US","isp-a","vod",12.5,3.5,1.25,2400,0]]"#;
    let resp = handle_request(
        &server,
        &f,
        &mut sessions,
        &format!(r#"{{"op":"append","table":"sessions","rows":{rows}}}"#),
    );
    assert!(resp.contains(r#""ok":true"#), "{resp}");
    let b = submit(&server, &f, &mut sessions, "C5");
    assert_eq!(
        poll_to_done(&server, &f, &mut sessions, a).len(),
        BATCHES + 1
    );
    assert_eq!(poll_to_done(&server, &f, &mut sessions, b).len(), BATCHES);

    let mut frames = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name == "manifest.seg" || (name.starts_with("session-") && name.ends_with(".seg")) {
            frames += iolap_store::scan_segment(&path).unwrap().frames.len();
        }
    }
    // At least two 'S', two 'D', an 'R' per batch (nine) and the 'A'; a
    // 'C' joins each checkpointed batch.
    assert!(frames >= 2 * BATCHES + 6, "{frames}");
    let expo = server.exposition(true);
    assert!(
        expo.contains(&format!("\niolap_durable_records_total {frames}\n")),
        "{frames} frames on disk:\n{expo}"
    );
    assert!(expo.contains("\niolap_durable_write_errors_total 0\n"));
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
