//! The serving harness: a benchmark-owned submit factory that takes SQL
//! text, the server behind a loopback socket, and closed-loop clients that
//! submit, poll, append and resume over NDJSON.

use crate::inputs::{config, Env, SessionKind};
use crate::local::{ms_since, Listener};
use crate::record::QueryRun;
use crate::spans::{Spans, NONE};
use crate::spec::{Scale, EMPTY_POLL_SLEEP};
use iolap_core::{IolapDriver, TraceMode};
use iolap_relation::Relation;
use iolap_server::tcp::{report_json, spec_from_request, SubmitFactory};
use iolap_server::wire::{parse, JVal};
use iolap_server::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A client gives up on a session that has produced nothing for this long.
const STALL_LIMIT: Duration = Duration::from_secs(60);

/// Submit factory over `envs`: the request names its query as SQL text
/// (`"sql"`, `"stream"`), the data set it runs on (`"data"`) and its driver
/// seed, so the server parses, plans and rewrites every session it admits.
/// A pure function of the request, which is what durable recovery needs to
/// rebuild a session.
pub fn sql_factory(envs: &[Env], scale: &Scale, trace: TraceMode) -> SubmitFactory {
    let catalogs: Vec<_> = envs.iter().map(|e| e.catalog.clone()).collect();
    let (registry, scale) = (envs[0].registry.clone(), *scale);
    Arc::new(move |req: &JVal| {
        let field = |name: &str| {
            req.get(name)
                .and_then(JVal::as_str)
                .ok_or_else(|| format!("submit needs a \"{name}\" string"))
        };
        let number = |name: &str| {
            req.get(name)
                .and_then(JVal::as_u64)
                .ok_or_else(|| format!("submit needs a \"{name}\" number"))
        };
        let catalog = usize::try_from(number("data")?)
            .ok()
            .and_then(|i| catalogs.get(i))
            .ok_or_else(|| "no such data set".to_string())?;
        let cfg = config(&scale, number("seed")?).trace_mode(trace);
        let driver =
            IolapDriver::from_sql(field("sql")?, catalog, &registry, field("stream")?, cfg)
                .map_err(|e| e.to_string())?;
        Ok((driver, spec_from_request(req)))
    })
}

/// A `Server` behind `tcp::serve` on a loopback port.
pub struct TcpServer {
    /// The server, for the counters it returns.
    pub server: Arc<Server>,
    listener: Listener,
}

impl TcpServer {
    /// Start `cfg`'s server and its accept loop.
    pub fn start(cfg: ServerConfig, factory: &SubmitFactory) -> std::io::Result<TcpServer> {
        let server = Arc::new(Server::new(cfg));
        let (s, f) = (Arc::clone(&server), Arc::clone(factory));
        let listener = Listener::spawn(move |l| iolap_server::tcp::serve(l, s, f))?;
        Ok(TcpServer { server, listener })
    }

    /// Where clients connect.
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr
    }

    /// Stop the workers after their in-flight batch and end the accept
    /// loop. Sessions that were running are left unfinished, as a killed
    /// process leaves them.
    pub fn stop(self) -> Arc<Server> {
        self.server.shutdown();
        self.listener.stop();
        self.server
    }
}

/// One NDJSON connection. Request lines are kept when `keep` is set, for
/// the wire-parse probe.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    keep: Option<Arc<Mutex<Vec<String>>>>,
    quickack: bool,
    /// Bytes of the last response line.
    last_response_len: usize,
}

impl Client {
    /// Connect to `addr` as the benchmark's clients do: no Nagle delay on
    /// requests, no delayed ACK on responses.
    pub fn connect(
        addr: SocketAddr,
        keep: Option<Arc<Mutex<Vec<String>>>>,
    ) -> std::io::Result<Client> {
        let mut client = Client::connect_plain(addr)?;
        client.keep = keep;
        client.quickack = true;
        Ok(client)
    }

    /// Connect to `addr` with the kernel's default ACK timing.
    pub fn connect_plain(addr: SocketAddr) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(STALL_LIMIT))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            writer,
            reader,
            keep: None,
            quickack: false,
            last_response_len: 0,
        })
    }

    /// Send one request line and wait for its response.
    pub fn request(&mut self, line: &str) -> Result<JVal, String> {
        if let Some(keep) = &self.keep {
            keep.lock()
                .expect("request log poisoned")
                .push(line.to_string());
        }
        let io = |e: std::io::Error| format!("socket: {e}");
        self.writer.write_all(line.as_bytes()).map_err(io)?;
        self.writer.write_all(b"\n").map_err(io)?;
        // The server writes a response as two segments (the line, then its
        // newline) on a socket without TCP_NODELAY, so the newline waits
        // for the line to be acknowledged. A client that delays its ACKs
        // (the kernel default) therefore waits ~40 ms for every response.
        // This client acknowledges at once; Linux drops the flag after
        // use, hence once per response. `server.tcp.rtt_plain_us` keeps
        // the plain client's round trip on record.
        if self.quickack {
            use std::os::linux::net::TcpStreamExt;
            self.writer.set_quickack(true).map_err(io)?;
        }
        let mut response = String::new();
        if self.reader.read_line(&mut response).map_err(io)? == 0 {
            return Err("server closed the connection".to_string());
        }
        self.last_response_len = response.len();
        parse(response.trim_end()).map_err(|e| format!("unparsable response: {e}"))
    }

    /// A request that must come back `"ok":true`.
    pub fn request_ok(&mut self, line: &str) -> Result<JVal, String> {
        let v = self.request(line)?;
        if v.get("ok").and_then(JVal::as_bool) == Some(true) {
            Ok(v)
        } else {
            Err(format!("refused: {}", v.render()))
        }
    }
}

/// What a client holds of one session.
#[derive(Default)]
pub struct Stream {
    /// Server-assigned id.
    pub id: u64,
    /// Arrival of each report, ms since submit.
    pub arrivals_ms: Vec<f64>,
    /// Each report as received.
    pub reports: Vec<JVal>,
    /// Client-seen gap minus the report's own `elapsed_ms`, per report.
    pub overhead_ms: Vec<f64>,
    /// Bytes of the poll responses that carried reports.
    pub report_bytes: usize,
    /// Last state the server reported.
    pub state: String,
}

impl Stream {
    /// Poll once; returns how many reports arrived.
    pub fn poll(
        &mut self,
        client: &mut Client,
        submit: Instant,
        spans: &Spans,
        qid: u32,
    ) -> Result<usize, String> {
        let span = spans.begin("client.poll", NONE, qid);
        let resp = client.request_ok(&format!(
            "{{\"op\":\"poll\",\"session\":{},\"max\":16}}",
            self.id
        ));
        spans.end(span);
        let resp = resp?;
        let now = ms_since(submit);
        self.state = resp
            .get("state")
            .and_then(JVal::as_str)
            .unwrap_or("")
            .to_string();
        let Some(JVal::Arr(reports)) = resp.get("reports") else {
            return Err("poll response without reports".to_string());
        };
        // Reports of one response reach the client together: the wait since
        // the previous update is shared among them.
        let waited =
            (now - self.arrivals_ms.last().copied().unwrap_or(0.0)) / reports.len().max(1) as f64;
        for r in reports {
            let own = r.get("elapsed_ms").and_then(JVal::as_f64).unwrap_or(0.0);
            self.overhead_ms.push(waited - own);
            self.arrivals_ms.push(now);
            self.reports.push(r.clone());
        }
        if !reports.is_empty() {
            self.report_bytes += client.last_response_len;
        }
        Ok(reports.len())
    }

    /// Poll until the session is drained (`done`) or `until` reports are
    /// held, sleeping [`EMPTY_POLL_SLEEP`] after an empty poll.
    pub fn poll_until(
        &mut self,
        client: &mut Client,
        submit: Instant,
        until: usize,
        spans: &Spans,
        qid: u32,
    ) -> Result<(), String> {
        let mut idle_since = Instant::now();
        loop {
            let got = self.poll(client, submit, spans, qid)?;
            match self.state.as_str() {
                "done" => return Ok(()),
                "failed" | "cancelled" => return Err(format!("session ended {}", self.state)),
                _ => {}
            }
            if self.reports.len() >= until {
                return Ok(());
            }
            if got == 0 {
                if idle_since.elapsed() > STALL_LIMIT {
                    return Err("session stalled".to_string());
                }
                std::thread::sleep(EMPTY_POLL_SLEEP);
            } else {
                idle_since = Instant::now();
            }
        }
    }

    /// The client's-eye timings of this stream.
    pub fn query_run(
        &self,
        kind: &SessionKind,
        rows: usize,
        restart_at: Option<usize>,
    ) -> QueryRun {
        QueryRun {
            query: kind.label(),
            arrivals_ms: self.arrivals_ms.clone(),
            cis: self
                .reports
                .iter()
                .map(|r| r.get("max_rel_ci").and_then(JVal::as_f64))
                .collect(),
            batch_ms: self
                .reports
                .iter()
                .map(|r| r.get("elapsed_ms").and_then(JVal::as_f64).unwrap_or(0.0))
                .collect(),
            rows,
            complete: !kind.ci,
            restart_at,
        }
    }
}

/// Submit `line` and return the stream with its id set.
pub fn submit(client: &mut Client, line: &str, spans: &Spans, qid: u32) -> Result<Stream, String> {
    let span = spans.begin("client.submit", NONE, qid);
    let resp = client.request_ok(line);
    spans.end(span);
    let id = resp?
        .get("session")
        .and_then(JVal::as_u64)
        .ok_or_else(|| "submit response without a session id".to_string())?;
    Ok(Stream {
        id,
        ..Stream::default()
    })
}

/// A report line with its wall clock pinned, so streams from different
/// runs compare bytewise.
pub fn masked(report: &JVal) -> String {
    let mut pinned = report.clone();
    if let JVal::Obj(members) = &mut pinned {
        for (k, v) in members.iter_mut() {
            if k == "elapsed_ms" {
                *v = JVal::Num(0.0);
            }
        }
    }
    pinned.render()
}

/// The solo run's canon for `kind`: the query alone in this process with
/// the same configuration, each report rendered as the server renders it
/// and masked; plus the reports themselves.
pub fn solo_canon(
    env: &Env,
    scale: &Scale,
    kind: &SessionKind,
    driver_seed: u64,
    trace: TraceMode,
) -> Result<(Vec<String>, Vec<iolap_core::BatchReport>), String> {
    let cfg = config(scale, driver_seed).trace_mode(trace);
    let mut driver = IolapDriver::from_sql(
        kind.spec.sql,
        &env.catalog,
        &env.registry,
        kind.spec.stream_table,
        cfg,
    )
    .map_err(|e| e.to_string())?;
    let reports = driver.run_to_completion().map_err(|e| e.to_string())?;
    let lines = reports
        .iter()
        .map(|r| {
            parse(&report_json(r))
                .map(|v| masked(&v))
                .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((lines, reports))
}

/// The rows of one relation as the server will read them off the wire.
pub fn rows_as_parsed(line: &str, schema: &iolap_relation::Schema) -> Result<Relation, String> {
    let v = parse(line).map_err(|e| e.to_string())?;
    let rows = v
        .get("rows")
        .ok_or_else(|| "append line without rows".to_string())?;
    iolap_server::durable::rows_to_relation(rows, schema)
}
