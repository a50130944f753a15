//! Line-protocol tests: the transport-free dispatcher round-trip, and
//! real TCP socket sessions over loopback.

use iolap_core::{IolapConfig, IolapDriver};
use iolap_engine::plan_sql;
use iolap_server::shard::{serve_shard, TcpShardPool};
use iolap_server::tcp::{handle_request, serve, SubmitFactory};
use iolap_server::wire::{parse, JVal};
use iolap_server::{Server, ServerConfig};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write as _};
use std::sync::Arc;
use std::time::Duration;

/// Factory over a pinned Conviva catalog: requests name the query id.
/// Every driver it builds folds on `pool` when one is given.
fn factory_sized(rows: usize, batches: usize, pool: Option<Arc<TcpShardPool>>) -> SubmitFactory {
    let catalog = iolap_workloads::conviva_catalog(rows, 17);
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
        let mut cfg = IolapConfig::with_batches(batches).trials(10).seed(17);
        cfg.partition_mode = iolap_relation::PartitionMode::RowShuffle;
        let mut driver = IolapDriver::from_plan(&pq, &catalog, q.stream_table, cfg)
            .map_err(|e| e.to_string())?;
        if let Some(pool) = &pool {
            driver.set_shard_exec(pool.clone());
        }
        Ok((driver, iolap_server::tcp::spec_from_request(req)))
    })
}

fn factory() -> SubmitFactory {
    factory_sized(300, 4, None)
}

/// A pool of `shards` connections to one loopback `serve_shard` worker.
fn loopback_pool(shards: usize) -> Arc<TcpShardPool> {
    let listener =
        std::net::TcpListener::bind("127.0.0.1:0").expect("bind a loopback shard worker");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || serve_shard(listener));
    Arc::new(TcpShardPool::connect(&vec![addr; shards]).unwrap())
}

fn field_u64(resp: &JVal, key: &str) -> Option<u64> {
    resp.get(key).and_then(JVal::as_u64)
}

#[test]
fn dispatcher_round_trip_submit_poll_summary_cancel() {
    let server = Server::new(ServerConfig::with_workers(2));
    let f = factory();
    let mut sessions = BTreeMap::new();

    let resp = handle_request(
        &server,
        &f,
        &mut sessions,
        r#"{"op":"submit","query":"C3","label":"u1"}"#,
    );
    let v = parse(&resp).unwrap();
    assert_eq!(v.get("ok").and_then(JVal::as_bool), Some(true), "{resp}");
    let id = field_u64(&v, "session").unwrap();

    // Poll until the session is done; every response parses and report
    // batches arrive in order.
    let mut batches = Vec::new();
    for _ in 0..200 {
        let resp = handle_request(
            &server,
            &f,
            &mut sessions,
            &format!(r#"{{"op":"poll","session":{id},"max":8}}"#),
        );
        let v = parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(JVal::as_bool), Some(true), "{resp}");
        if let Some(JVal::Arr(reports)) = v.get("reports") {
            for r in reports {
                batches.push(r.get("batch").and_then(JVal::as_u64).unwrap());
            }
        }
        if v.get("state").and_then(JVal::as_str) == Some("done") {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(batches, vec![0, 1, 2, 3]);

    let resp = handle_request(
        &server,
        &f,
        &mut sessions,
        &format!(r#"{{"op":"summary","session":{id}}}"#),
    );
    let v = parse(&resp).unwrap();
    let summary = v.get("summary").unwrap();
    assert_eq!(summary.get("state").and_then(JVal::as_str), Some("done"));
    assert_eq!(summary.get("end").and_then(JVal::as_str), Some("completed"));
    assert_eq!(field_u64(summary, "batches_run"), Some(4));

    let resp = handle_request(&server, &f, &mut sessions, r#"{"op":"stats"}"#);
    let v = parse(&resp).unwrap();
    assert_eq!(field_u64(v.get("stats").unwrap(), "admitted"), Some(1));
}

#[test]
fn dispatcher_rejects_malformed_and_unknown() {
    let server = Server::new(ServerConfig::with_workers(1));
    let f = factory();
    let mut sessions = BTreeMap::new();
    for (line, kind) in [
        ("{not json", "bad_json"),
        (r#"{"op":"frobnicate"}"#, "bad_request"),
        (r#"{"op":"submit","query":"NOPE"}"#, "bad_request"),
        (r#"{"op":"poll","session":99}"#, "unknown_session"),
    ] {
        let resp = handle_request(&server, &f, &mut sessions, line);
        let v = parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(JVal::as_bool), Some(false), "{resp}");
        assert_eq!(v.get("kind").and_then(JVal::as_str), Some(kind), "{resp}");
    }
}

/// A `relative_ci` contract at a confidence level the driver does not
/// compute its intervals at is refused and admits no session; the
/// driver's own level (0.95) is accepted.
#[test]
fn submit_rejects_relative_ci_at_a_foreign_confidence() {
    let server = Server::new(ServerConfig::with_workers(1));
    let f = factory();
    let mut sessions = BTreeMap::new();
    let submit = |confidence: f64| {
        format!(
            r#"{{"op":"submit","query":"C3","policy":{{"kind":"relative_ci","target":0.05,"confidence":{confidence}}}}}"#
        )
    };
    let resp = handle_request(&server, &f, &mut sessions, &submit(0.99));
    let v = parse(&resp).unwrap();
    assert_eq!(v.get("ok").and_then(JVal::as_bool), Some(false), "{resp}");
    assert_eq!(v.get("kind").and_then(JVal::as_str), Some("bad_request"));
    assert_eq!(
        server.stats().admitted,
        0,
        "a refused contract admits nothing"
    );
    assert!(sessions.is_empty());

    let resp = handle_request(&server, &f, &mut sessions, &submit(0.95));
    let v = parse(&resp).unwrap();
    assert_eq!(v.get("ok").and_then(JVal::as_bool), Some(true), "{resp}");
    assert_eq!(server.stats().admitted, 1);
}

/// A request nested far past the parser's bound is a `bad_json` reply on
/// this connection, not a stack overflow that aborts every session on the
/// server; nesting at the bound still parses.
#[test]
fn dispatcher_answers_deep_nesting_with_bad_json() {
    let server = Server::new(ServerConfig::with_workers(1));
    let f = factory();
    let mut sessions = BTreeMap::new();
    let at_bound = format!(
        r#"{{"op":"stats","pad":{}{}}}"#,
        "[".repeat(127),
        "]".repeat(127)
    );
    for (line, ok) in [("[".repeat(100_000), false), (at_bound, true)] {
        let resp = handle_request(&server, &f, &mut sessions, &line);
        let v = parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(JVal::as_bool), Some(ok), "{resp}");
        if !ok {
            assert_eq!(v.get("kind").and_then(JVal::as_str), Some("bad_json"));
        }
    }
}

/// Factory that plans the request's `"sql"` text over a pinned Conviva
/// catalog, streaming `sessions`.
fn sql_factory() -> SubmitFactory {
    let catalog = iolap_workloads::conviva_catalog(300, 17);
    let registry = iolap_workloads::conviva_registry();
    Arc::new(move |req: &JVal| {
        let sql = req.get("sql").and_then(JVal::as_str).ok_or("missing sql")?;
        let pq = plan_sql(sql, &catalog, &registry).map_err(|e| e.to_string())?;
        let cfg = IolapConfig::with_batches(2).trials(10).seed(17);
        let driver =
            IolapDriver::from_plan(&pq, &catalog, "sessions", cfg).map_err(|e| e.to_string())?;
        Ok((driver, iolap_server::tcp::spec_from_request(req)))
    })
}

/// SQL nested far past the parser's bound is an error reply to its submit,
/// not a stack overflow on the connection's thread (where the factory
/// plans it) that aborts every session on the server.
#[test]
fn deep_sql_submit_is_an_error_reply() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let server = Arc::new(Server::new(ServerConfig::with_workers(1)));
    std::thread::spawn(move || serve(listener, server, sql_factory()));

    let stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut request = |req: &str| {
        writer.write_all(req.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        parse(line.trim()).unwrap()
    };
    let deep = format!(
        "SELECT {}1{} FROM sessions",
        "(".repeat(100_000),
        ")".repeat(100_000)
    );
    let v =
        request(&JVal::obj(vec![("op", "submit".into()), ("sql", deep.as_str().into())]).render());
    assert_eq!(v.get("ok").and_then(JVal::as_bool), Some(false), "{v}");
    let msg = v.get("error").and_then(JVal::as_str).unwrap_or_default();
    assert!(msg.contains("nested deeper than"), "{v}");
    let v = request(r#"{"op":"stats"}"#);
    assert_eq!(v.get("ok").and_then(JVal::as_bool), Some(true), "{v}");
}

#[test]
fn dispatcher_reports_queue_full_as_protocol_error() {
    let server = Server::new(ServerConfig::with_workers(1).max_live(1).max_queued(1));
    // Each submit plans its query inline, so the first session must outlast
    // two plan-and-admit round trips: size the workload well past that.
    let f = factory_sized(4000, 24, None);
    let mut sessions = BTreeMap::new();
    let mut kinds = Vec::new();
    for i in 0..3 {
        let resp = handle_request(
            &server,
            &f,
            &mut sessions,
            &format!(r#"{{"op":"submit","query":"C2","label":"s{i}"}}"#),
        );
        let v = parse(&resp).unwrap();
        kinds.push(match v.get("ok").and_then(JVal::as_bool) {
            Some(true) => "ok".to_string(),
            _ => v
                .get("kind")
                .and_then(JVal::as_str)
                .unwrap_or("?")
                .to_string(),
        });
    }
    assert_eq!(kinds, vec!["ok", "ok", "queue_full"]);
    // Cancel the admitted sessions so teardown does not wait out 24 batches.
    for id in 0..2 {
        let resp = handle_request(
            &server,
            &f,
            &mut sessions,
            &format!(r#"{{"op":"cancel","session":{id}}}"#),
        );
        assert!(resp.contains("true"), "{resp}");
    }
}

#[test]
fn tcp_socket_round_trip() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let server = Arc::new(Server::new(ServerConfig::with_workers(2)));
    let f = factory();
    std::thread::spawn(move || serve(listener, server, f));

    let stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut request = |req: &str, line: &mut String| {
        writer.write_all(req.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        line.clear();
        reader.read_line(line).unwrap();
        parse(line.trim()).unwrap()
    };

    let v = request(
        r#"{"op":"submit","query":"C3","label":"net","policy":{"kind":"batches","n":2}}"#,
        &mut line,
    );
    assert_eq!(v.get("ok").and_then(JVal::as_bool), Some(true));
    let id = v.get("session").and_then(JVal::as_u64).unwrap();

    let mut got = 0u64;
    for _ in 0..200 {
        let v = request(
            &format!(r#"{{"op":"poll","session":{id},"max":8}}"#),
            &mut line,
        );
        if let Some(JVal::Arr(reports)) = v.get("reports") {
            got += reports.len() as u64;
        }
        if v.get("state").and_then(JVal::as_str) == Some("done") {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    // The batches(2) stop policy retired the session after two reports.
    assert_eq!(got, 2);
    let v = request(&format!(r#"{{"op":"summary","session":{id}}}"#), &mut line);
    assert_eq!(
        v.get("summary")
            .and_then(|s| s.get("end"))
            .and_then(JVal::as_str),
        Some("target_met")
    );
}

#[test]
fn poll_with_max_zero_returns_empty_without_consuming() {
    let server = Server::new(ServerConfig::with_workers(1));
    let f = factory();
    let mut sessions = BTreeMap::new();
    let resp = handle_request(
        &server,
        &f,
        &mut sessions,
        r#"{"op":"submit","query":"C3","label":"z"}"#,
    );
    let id = field_u64(&parse(&resp).unwrap(), "session").unwrap();

    // Let at least one report land, then poll with max:0 twice — both
    // must be ok with an empty report array and leave the buffer intact.
    std::thread::sleep(Duration::from_millis(50));
    for _ in 0..2 {
        let resp = handle_request(
            &server,
            &f,
            &mut sessions,
            &format!(r#"{{"op":"poll","session":{id},"max":0}}"#),
        );
        let v = parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(JVal::as_bool), Some(true), "{resp}");
        match v.get("reports") {
            Some(JVal::Arr(reports)) => assert!(reports.is_empty(), "{resp}"),
            other => panic!("reports: {other:?}"),
        }
    }
    // A real poll still sees batch 0: max:0 consumed nothing.
    let mut first = None;
    for _ in 0..200 {
        let resp = handle_request(
            &server,
            &f,
            &mut sessions,
            &format!(r#"{{"op":"poll","session":{id},"max":1}}"#),
        );
        let v = parse(&resp).unwrap();
        if let Some(JVal::Arr(reports)) = v.get("reports") {
            if let Some(r) = reports.first() {
                first = r.get("batch").and_then(JVal::as_u64);
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(first, Some(0));
    let _ = handle_request(
        &server,
        &f,
        &mut sessions,
        &format!(r#"{{"op":"cancel","session":{id}}}"#),
    );
}

#[test]
fn dispatcher_reports_shutdown_as_protocol_error() {
    let server = Server::new(ServerConfig::with_workers(1));
    let f = factory();
    let mut sessions = BTreeMap::new();
    server.shutdown();
    let resp = handle_request(
        &server,
        &f,
        &mut sessions,
        r#"{"op":"submit","query":"C3","label":"late"}"#,
    );
    let v = parse(&resp).unwrap();
    assert_eq!(v.get("ok").and_then(JVal::as_bool), Some(false), "{resp}");
    assert_eq!(
        v.get("kind").and_then(JVal::as_str),
        Some("shutting_down"),
        "{resp}"
    );
}

#[test]
fn sessions_are_scoped_to_their_connection() {
    let server = Server::new(ServerConfig::with_workers(1));
    let f = factory();
    // Connection A submits; connection B (a different handle table) must
    // not see the session — even cancel is connection-scoped.
    let mut conn_a = BTreeMap::new();
    let mut conn_b = BTreeMap::new();
    let resp = handle_request(
        &server,
        &f,
        &mut conn_a,
        r#"{"op":"submit","query":"C3","label":"a"}"#,
    );
    let id = field_u64(&parse(&resp).unwrap(), "session").unwrap();
    for op in ["poll", "summary", "cancel"] {
        let resp = handle_request(
            &server,
            &f,
            &mut conn_b,
            &format!(r#"{{"op":"{op}","session":{id}}}"#),
        );
        let v = parse(&resp).unwrap();
        assert_eq!(
            v.get("kind").and_then(JVal::as_str),
            Some("unknown_session"),
            "{op}: {resp}"
        );
    }
    // The owning connection can still cancel it; afterwards the handle is
    // still *known* to A (summaries of finished sessions remain useful).
    let resp = handle_request(
        &server,
        &f,
        &mut conn_a,
        &format!(r#"{{"op":"cancel","session":{id}}}"#),
    );
    assert!(parse(&resp).unwrap().get("ok").and_then(JVal::as_bool) == Some(true));
    let resp = handle_request(
        &server,
        &f,
        &mut conn_a,
        &format!(r#"{{"op":"summary","session":{id}}}"#),
    );
    assert_eq!(
        parse(&resp).unwrap().get("ok").and_then(JVal::as_bool),
        Some(true)
    );
}

#[test]
fn spec_from_request_clamps_batch_policy() {
    use iolap_server::tcp::spec_from_request;
    use iolap_server::StopPolicy;
    let spec = |doc: &str| spec_from_request(&parse(doc).unwrap());

    let s = spec(r#"{"op":"submit","policy":{"kind":"batches","n":4}}"#);
    assert_eq!(s.policy, StopPolicy::Batches(4));
    // 2^53 — largest exactly-representable power region; must not truncate.
    let s = spec(r#"{"op":"submit","policy":{"kind":"batches","n":9007199254740992}}"#);
    assert_eq!(s.policy, StopPolicy::Batches(9007199254740992));
    // 2^64 is out of u64 range → treated as "run to completion", never a
    // silently wrapped small budget.
    let s = spec(r#"{"op":"submit","policy":{"kind":"batches","n":18446744073709551616}}"#);
    assert_eq!(s.policy, StopPolicy::Batches(usize::MAX));
    // Negative and fractional are equally unusable → completion.
    let s = spec(r#"{"op":"submit","policy":{"kind":"batches","n":-3}}"#);
    assert_eq!(s.policy, StopPolicy::Batches(usize::MAX));
    let s = spec(r#"{"op":"submit","policy":{"kind":"batches","n":2.5}}"#);
    assert_eq!(s.policy, StopPolicy::Batches(usize::MAX));
}

/// The tentpole determinism claim at the protocol level: a server whose
/// factory attaches a shard pool publishes byte-identical report lines to
/// an unsharded one.
#[test]
fn sharded_server_reports_are_byte_identical() {
    let drain = |shards: usize| -> Vec<String> {
        let server = Server::new(ServerConfig::with_workers(1));
        let pool = (shards > 0).then(|| loopback_pool(shards));
        let f = factory_sized(2600, 3, pool);
        let mut sessions = BTreeMap::new();
        let resp = handle_request(
            &server,
            &f,
            &mut sessions,
            r#"{"op":"submit","query":"C2","label":"det"}"#,
        );
        let id = field_u64(&parse(&resp).unwrap(), "session").unwrap();
        let mut reports = Vec::new();
        for _ in 0..400 {
            let resp = handle_request(
                &server,
                &f,
                &mut sessions,
                &format!(r#"{{"op":"poll","session":{id},"max":8}}"#),
            );
            let v = parse(&resp).unwrap();
            if let Some(JVal::Arr(rs)) = v.get("reports") {
                // Raw JSON bytes, not parsed floats: byte identity is the
                // contract (elapsed_ms is wall clock — mask it out).
                for r in rs {
                    reports.push(render_report_stable(r));
                }
            }
            if v.get("state").and_then(JVal::as_str) == Some("done") {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        reports
    };
    let baseline = drain(0);
    assert_eq!(baseline.len(), 3, "session must complete");
    for shards in [1, 2, 4] {
        assert_eq!(drain(shards), baseline, "shards={shards}");
    }
}

/// Re-serialize a parsed report with the timing field pinned, preserving
/// every value byte exactly as the wire carried it (floats re-render via
/// the same `num` policy both servers used).
fn render_report_stable(r: &JVal) -> String {
    let mut masked = r.clone();
    if let JVal::Obj(members) = &mut masked {
        for (k, v) in members.iter_mut() {
            if k == "elapsed_ms" {
                *v = JVal::Num(0.0);
            }
        }
    }
    masked.render()
}

/// The `metrics` op: a Prometheus-style exposition plus the structured
/// telemetry summary, from one consistent snapshot. Canonical mode must
/// strip every wall-clock family so the exposition byte-compares.
#[test]
fn metrics_op_exposes_fleet_state() {
    let server = Server::new(ServerConfig::with_workers(1));
    let f = factory();
    let mut sessions = BTreeMap::new();
    let resp = handle_request(
        &server,
        &f,
        &mut sessions,
        r#"{"op":"submit","query":"C3","label":"acme","policy":{"kind":"relative_ci","target":0.5}}"#,
    );
    let id = field_u64(&parse(&resp).unwrap(), "session").unwrap();
    for _ in 0..200 {
        let resp = handle_request(
            &server,
            &f,
            &mut sessions,
            &format!(r#"{{"op":"poll","session":{id},"max":8}}"#),
        );
        let v = parse(&resp).unwrap();
        if v.get("state").and_then(JVal::as_str) == Some("done") {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    let resp = handle_request(&server, &f, &mut sessions, r#"{"op":"metrics"}"#);
    let v = parse(&resp).unwrap();
    assert_eq!(v.get("ok").and_then(JVal::as_bool), Some(true), "{resp}");
    let full = v.get("exposition").and_then(JVal::as_str).unwrap();
    assert!(full.contains("iolap_sessions_admitted_total 1"), "{full}");
    assert!(full.contains("iolap_slo_ci_sessions_total 1"), "{full}");
    assert!(full.contains("tenant=\"acme\""), "{full}");
    let summary = v.get("summary").unwrap();
    let sess = match summary.get("sessions") {
        Some(JVal::Arr(s)) => s,
        other => panic!("sessions must be an array: {other:?}"),
    };
    assert_eq!(sess.len(), 1);
    assert_eq!(sess[0].get("tenant").and_then(JVal::as_str), Some("acme"));
    assert!(field_u64(&sess[0], "batches").unwrap() >= 1);
    assert!(summary.get("slo").is_some());

    let resp = handle_request(
        &server,
        &f,
        &mut sessions,
        r#"{"op":"metrics","canonical":true}"#,
    );
    let v = parse(&resp).unwrap();
    let canon = v.get("exposition").and_then(JVal::as_str).unwrap();
    assert!(
        !canon.contains("_ns\""),
        "canonical kept wall-clock: {canon}"
    );
    assert!(
        !canon.contains(".ns\""),
        "canonical kept wall-clock: {canon}"
    );
    assert!(!canon.contains("mem_bytes"), "{canon}");
    // Canonical mode is a pure filter: the same snapshot, fewer families.
    assert!(canon.len() < full.len());
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SCRATCH: AtomicUsize = AtomicUsize::new(0);
    let n = SCRATCH.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("iolap-proto-{}-{n}-{name}", std::process::id()))
}

/// Malformed `append` frames are protocol errors, never queued rows; an
/// append naming a table no live session streams is `unknown_table`.
#[test]
fn append_rejects_malformed_frames_and_unknown_tables() {
    let server = Server::new(ServerConfig::with_workers(1));
    let f = factory();
    let mut sessions = BTreeMap::new();
    // No session at all: every table is unknown.
    let resp = handle_request(
        &server,
        &f,
        &mut sessions,
        r#"{"op":"append","table":"sessions","rows":[[1,2,3]]}"#,
    );
    let v = parse(&resp).unwrap();
    assert_eq!(
        v.get("kind").and_then(JVal::as_str),
        Some("unknown_table"),
        "{resp}"
    );

    let resp = handle_request(
        &server,
        &f,
        &mut sessions,
        r#"{"op":"submit","query":"C3","label":"app"}"#,
    );
    let id = field_u64(&parse(&resp).unwrap(), "session").unwrap();
    for (line, kind) in [
        // Structural errors are rejected at the wire, before any routing.
        (r#"{"op":"append","rows":[[1]]}"#, "bad_request"),
        (r#"{"op":"append","table":"sessions"}"#, "bad_request"),
        (
            r#"{"op":"append","table":"sessions","rows":"nope"}"#,
            "bad_request",
        ),
        (
            r#"{"op":"append","table":"sessions","rows":[]}"#,
            "bad_request",
        ),
        (
            r#"{"op":"append","table":"sessions","rows":[1,2]}"#,
            "bad_request",
        ),
        // A well-formed append to a table nobody streams.
        (
            r#"{"op":"append","table":"nonesuch","rows":[[1,2]]}"#,
            "unknown_table",
        ),
    ] {
        let resp = handle_request(&server, &f, &mut sessions, line);
        let v = parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(JVal::as_bool), Some(false), "{resp}");
        assert_eq!(v.get("kind").and_then(JVal::as_str), Some(kind), "{resp}");
    }
    let _ = handle_request(
        &server,
        &f,
        &mut sessions,
        &format!(r#"{{"op":"cancel","session":{id}}}"#),
    );
}

/// `resume` without a durable store (or with an id the manifest never
/// admitted) is `unknown_session`; resuming a session whose `'D'` record
/// exists is `session_finished` — there is nothing left to replay.
#[test]
fn resume_distinguishes_unknown_from_finished_sessions() {
    // No durable store at all.
    let server = Server::new(ServerConfig::with_workers(1));
    let f = factory();
    let mut sessions = BTreeMap::new();
    let resp = handle_request(&server, &f, &mut sessions, r#"{"op":"resume","session":0}"#);
    let v = parse(&resp).unwrap();
    assert_eq!(
        v.get("kind").and_then(JVal::as_str),
        Some("unknown_session"),
        "{resp}"
    );
    let resp = handle_request(&server, &f, &mut sessions, r#"{"op":"resume"}"#);
    assert_eq!(
        parse(&resp).unwrap().get("kind").and_then(JVal::as_str),
        Some("bad_request"),
        "{resp}"
    );
    drop(server);

    // Run a session to completion under a durable store, then restart.
    let dir = scratch_dir("resume-done");
    let cfg = || ServerConfig::with_workers(1).durable(dir.clone());
    let server = Server::new(cfg());
    let mut sessions = BTreeMap::new();
    let resp = handle_request(
        &server,
        &f,
        &mut sessions,
        r#"{"op":"submit","query":"C3","label":"fin"}"#,
    );
    let id = field_u64(&parse(&resp).unwrap(), "session").unwrap();
    for _ in 0..400 {
        let resp = handle_request(
            &server,
            &f,
            &mut sessions,
            &format!(r#"{{"op":"poll","session":{id},"max":8}}"#),
        );
        if parse(&resp).unwrap().get("state").and_then(JVal::as_str) == Some("done") {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(server);

    let server = Server::new(cfg());
    let recovered = server.recover(&f);
    assert!(recovered.resumed.is_empty(), "{recovered:?}");
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
    assert!(
        v.get("error")
            .and_then(JVal::as_str)
            .is_some_and(|m| m.contains("completed")),
        "{resp}"
    );
    // An id past everything the manifest admitted is still unknown.
    let resp = handle_request(
        &server,
        &f,
        &mut sessions,
        r#"{"op":"resume","session":99}"#,
    );
    assert_eq!(
        parse(&resp).unwrap().get("kind").and_then(JVal::as_str),
        Some("unknown_session"),
        "{resp}"
    );
}

/// Streaming append mid-run, for every built-in Conviva query: the server
/// folds the new rows in as an extra mini-batch, and the resulting report
/// stream is byte-identical (modulo wall clock) to a driver-level run that
/// appends the same rows at the same position — Theorem 1's exact final
/// answer now covers the appended rows (`fraction` returns to 1.0 on the
/// last batch).
#[test]
fn append_mid_run_extends_the_session_exactly() {
    let rows = 300usize;
    let batches = 3usize;
    let catalog = iolap_workloads::conviva_catalog(rows, 17);
    let registry = iolap_workloads::conviva_registry();
    let f = factory_sized(rows, batches, None);
    for q in iolap_workloads::conviva_queries() {
        append_mid_run_matches_oracle(&q, &catalog, &registry, &f, batches);
    }
}

fn append_mid_run_matches_oracle(
    q: &iolap_workloads::QuerySpec,
    catalog: &iolap_relation::Catalog,
    registry: &iolap_engine::FunctionRegistry,
    f: &SubmitFactory,
    batches: usize,
) {
    let appended = r#"[[901,1,"cdn-x","SFO","US","isp-a","vod",12.5,3.5,1.25,2400,0],[902,2,"cdn-y","LAX","US","isp-b","live",2.5,7.25,0.5,3200,1]]"#;
    let query = q.id;

    // Driver-level oracle: step once, append after the first batch (the
    // position the parked server applies it at below), run to the end.
    let pq = plan_sql(q.sql, catalog, registry).unwrap();
    let mut cfg = IolapConfig::with_batches(batches).trials(10).seed(17);
    cfg.partition_mode = iolap_relation::PartitionMode::RowShuffle;
    let mut driver = IolapDriver::from_plan(&pq, catalog, q.stream_table, cfg).unwrap();
    let mut oracle = Vec::new();
    oracle.push(driver.step().unwrap().unwrap());
    let rel = iolap_server::durable::rows_to_relation(
        &parse(appended).unwrap(),
        &driver.stream_schema().clone(),
    )
    .unwrap();
    driver.append_rows(rel).unwrap();
    while let Some(r) = driver.step() {
        oracle.push(r.unwrap());
    }
    assert_eq!(
        oracle.len(),
        batches + 1,
        "{query}: append adds one mini-batch"
    );
    let oracle: Vec<String> = oracle
        .iter()
        .map(|r| render_report_stable(&parse(&iolap_server::tcp::report_json(r)).unwrap()))
        .collect();

    // Server run: buffer=1 parks the worker after each batch, so the
    // append lands deterministically between batch 0 and batch 1.
    let server = Server::new(ServerConfig::with_workers(1).report_buffer(1));
    let mut sessions = BTreeMap::new();
    let resp = handle_request(
        &server,
        f,
        &mut sessions,
        &format!(r#"{{"op":"submit","query":"{query}","label":"grow"}}"#),
    );
    let id = field_u64(&parse(&resp).unwrap(), "session").unwrap();
    let handle = sessions.get(&id).unwrap();
    for _ in 0..1000 {
        if handle.summary().pending_reports == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(
        handle.summary().pending_reports,
        1,
        "{query}: worker must be parked"
    );

    let resp = handle_request(
        &server,
        f,
        &mut sessions,
        &format!(r#"{{"op":"append","table":"sessions","rows":{appended}}}"#),
    );
    let v = parse(&resp).unwrap();
    assert_eq!(v.get("ok").and_then(JVal::as_bool), Some(true), "{resp}");
    assert_eq!(field_u64(&v, "sessions"), Some(1), "{resp}");

    let mut got = Vec::new();
    for _ in 0..1000 {
        let resp = handle_request(
            &server,
            f,
            &mut sessions,
            &format!(r#"{{"op":"poll","session":{id},"max":1}}"#),
        );
        let v = parse(&resp).unwrap();
        if let Some(JVal::Arr(rs)) = v.get("reports") {
            for r in rs {
                got.push(render_report_stable(r));
            }
        }
        if v.get("state").and_then(JVal::as_str) == Some("done") {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(
        got, oracle,
        "{query}: server stream must match the driver oracle"
    );
    // Theorem-1 agreement: the last batch scales by 1.0 again — its
    // fraction covers the full (grown) stream.
    let last = parse(got.last().unwrap()).unwrap();
    assert_eq!(
        last.get("fraction").and_then(JVal::as_f64),
        Some(1.0),
        "{query}"
    );
}

/// Hostile labels — quotes, backslashes, control characters — must round
/// trip bytewise through submit → summary and appear correctly escaped in
/// both the JSON telemetry summary and the Prometheus exposition.
#[test]
fn hostile_labels_round_trip_through_summary_and_exposition() {
    let server = Server::new(ServerConfig::with_workers(1));
    let f = factory();
    let mut sessions = BTreeMap::new();
    // JSON-decodes to: he"said\ <newline> tab<tab>!
    let resp = handle_request(
        &server,
        &f,
        &mut sessions,
        r#"{"op":"submit","query":"C3","label":"he\"said\\ \n tab\t!"}"#,
    );
    let v = parse(&resp).unwrap();
    assert_eq!(v.get("ok").and_then(JVal::as_bool), Some(true), "{resp}");
    let id = field_u64(&v, "session").unwrap();
    let hostile = "he\"said\\ \n tab\t!";

    let resp = handle_request(
        &server,
        &f,
        &mut sessions,
        &format!(r#"{{"op":"summary","session":{id}}}"#),
    );
    let v = parse(&resp).unwrap();
    assert_eq!(
        v.get("summary")
            .and_then(|s| s.get("label"))
            .and_then(JVal::as_str),
        Some(hostile),
        "label must round trip bytewise: {resp}"
    );

    let resp = handle_request(&server, &f, &mut sessions, r#"{"op":"metrics"}"#);
    let v = parse(&resp).unwrap();
    let summary = v.get("summary").unwrap();
    let sess = match summary.get("sessions") {
        Some(JVal::Arr(s)) => s,
        other => panic!("sessions must be an array: {other:?}"),
    };
    assert_eq!(sess[0].get("tenant").and_then(JVal::as_str), Some(hostile));
    let exposition = v.get("exposition").and_then(JVal::as_str).unwrap();
    // Prometheus escaping: backslash, quote, newline; tab passes through.
    assert!(
        exposition.contains("tenant=\"he\\\"said\\\\ \\n tab\t!\""),
        "{exposition}"
    );
}

/// Median round trip of 20 sequential request lines from a plain client —
/// no `TCP_NODELAY`, no `TCP_QUICKACK`, one write per request, as any
/// line-protocol client would do it.
fn plain_client_median_rtt(addr: std::net::SocketAddr, request: &str) -> Duration {
    let stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let frame = format!("{request}\n");
    let mut line = String::new();
    let mut rtts: Vec<Duration> = (0..20)
        .map(|_| {
            let start = std::time::Instant::now();
            writer.write_all(frame.as_bytes()).unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.ends_with('\n'), "{line}");
            start.elapsed()
        })
        .collect();
    rtts.sort();
    rtts[rtts.len() / 2]
}

/// A response written as two segments (line, then newline) stalls a plain
/// client on Nagle + delayed ACK for ~40 ms a round trip. Both accept
/// loops must answer in one segment.
#[test]
fn plain_client_round_trips_do_not_stall() {
    let server_listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let shard_listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let server_addr = server_listener.local_addr().unwrap();
    let shard_addr = shard_listener.local_addr().unwrap();
    let server = Arc::new(Server::new(ServerConfig::with_workers(1)));
    let f = factory();
    std::thread::spawn(move || serve(server_listener, server, f));
    std::thread::spawn(move || serve_shard(shard_listener));

    for (addr, request) in [
        (server_addr, r#"{"op":"stats"}"#),
        (shard_addr, r#"{"op":"shard.ping"}"#),
    ] {
        let median = plain_client_median_rtt(addr, request);
        assert!(
            median < Duration::from_millis(10),
            "{request}: median round trip {median:?}"
        );
    }
}
