//! The in-process harness: `from_sql` → `step()` to completion with the
//! client's clock around every call, the one-shot batch baseline, and the
//! timing wrapper around a shard pool.

use crate::inputs::Env;
use crate::record::QueryRun;
use crate::spans::{SpanId, Spans, NONE};
use iolap_core::{
    BatchReport, EngineError, FoldFragment, FoldPartial, IolapConfig, IolapDriver, ORow, ShardExec,
    ShardTraceCtx, ShardWorkerStats,
};
use iolap_relation::Relation;
use iolap_server::shard::{serve_shard, TcpShardPool};
use iolap_workloads::QuerySpec;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// One-shot batch execution of `q`: the exact answer (the oracle every
/// final report is checked against) and the wall time of the whole call.
pub fn run_baseline(env: &Env, q: &QuerySpec, spans: &Spans, query_id: u32) -> (Relation, f64) {
    let span = spans.begin("baseline.run", NONE, query_id);
    let start = Instant::now();
    let report = iolap_baselines::run_baseline(q.sql, &env.catalog, &env.registry)
        .unwrap_or_else(|e| panic!("{} baseline: {e}", q.id));
    let ms = ms_since(start);
    spans.end(span);
    (report.relation, ms)
}

/// Run `q` incrementally to completion as a client would: submit is the
/// `from_sql` call, and a report is in the client's hands when `step`
/// returns. With spans on, planning and driver construction are timed
/// apart (`from_sql` is exactly `plan_sql` then `from_plan`).
pub fn run_query(
    env: &Env,
    q: &QuerySpec,
    config: IolapConfig,
    shards: Option<&Arc<TimedShardExec>>,
    spans: &Spans,
    query_id: u32,
) -> Result<(QueryRun, Vec<BatchReport>), String> {
    let root = spans.begin("client.query", NONE, query_id);
    let submit = Instant::now();
    let mut driver = if spans.on() {
        let plan_span = spans.begin("engine.plan", root, query_id);
        let pq = iolap_engine::plan_sql(q.sql, &env.catalog, &env.registry);
        spans.end(plan_span);
        let build_span = spans.begin("driver.build", root, query_id);
        let d = pq.map_err(|e| e.to_string()).and_then(|pq| {
            IolapDriver::from_plan(&pq, &env.catalog, q.stream_table, config)
                .map_err(|e| e.to_string())
        });
        spans.end(build_span);
        d
    } else {
        IolapDriver::from_sql(q.sql, &env.catalog, &env.registry, q.stream_table, config)
            .map_err(|e| e.to_string())
    }
    .map_err(|e| format!("{}: {e}", q.id))?;
    if let Some(pool) = shards {
        driver.set_shard_exec(Arc::clone(pool) as Arc<dyn ShardExec>);
    }
    let mut run = QueryRun {
        query: q.id.to_string(),
        complete: true,
        ..QueryRun::default()
    };
    let mut reports = Vec::new();
    loop {
        let step_span = spans.begin("driver.step", root, query_id);
        if let Some(pool) = shards {
            pool.enter_step(step_span, query_id);
        }
        let step = driver.step();
        spans.end(step_span);
        match step {
            None => break,
            Some(Err(e)) => {
                spans.end(root);
                return Err(format!("{}: {e}", q.id));
            }
            Some(Ok(report)) => {
                run.arrivals_ms.push(ms_since(submit));
                run.cis.push(report.result.max_relative_ci_halfwidth());
                run.batch_ms.push(report.elapsed.as_secs_f64() * 1e3);
                reports.push(report);
            }
        }
    }
    spans.end(root);
    run.rows = env.catalog.get(q.stream_table).map_or(0, |t| t.len());
    Ok((run, reports))
}

/// Whether the last report carries the oracle's exact answer.
pub fn final_matches(reports: &[BatchReport], oracle: &Relation) -> bool {
    reports
        .last()
        .is_some_and(|r| r.fraction == 1.0 && r.result.relation.approx_eq(oracle, 1e-6))
}

/// Canonical text of one report's answer — everything but wall clock. Two
/// runs that agree here published byte-identical results.
pub fn report_canon(r: &BatchReport) -> String {
    format!(
        "batch={} fraction={} recovered={}\nnames={:?}\n{}estimates={:?}\n",
        r.batch, r.fraction, r.recovered, r.result.names, r.result.relation, r.result.estimates
    )
}

/// A shard pool seen from outside: every `fold` the driver dispatches is
/// timed, counted, and (with spans on) recorded with the frames it would
/// put on the wire.
pub struct TimedShardExec {
    inner: TcpShardPool,
    spans: Arc<Spans>,
    step: AtomicU32,
    query: AtomicU32,
    calls: AtomicU64,
    wait_ns: AtomicU64,
    fallbacks: AtomicU64,
    frames: Mutex<Vec<String>>,
}

/// Fold-request frames kept for the wire-parse probe.
const KEPT_FRAMES: usize = 4;

impl TimedShardExec {
    /// Wrap `inner`.
    pub fn new(inner: TcpShardPool, spans: Arc<Spans>) -> TimedShardExec {
        TimedShardExec {
            inner,
            spans,
            step: AtomicU32::new(NONE),
            query: AtomicU32::new(0),
            calls: AtomicU64::new(0),
            wait_ns: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            frames: Mutex::new(Vec::new()),
        }
    }

    /// Name the `driver.step` span the next folds are caused by.
    pub fn enter_step(&self, step: SpanId, query_id: u32) {
        self.step.store(step, Ordering::Relaxed);
        self.query.store(query_id, Ordering::Relaxed);
    }

    /// `(fold calls, ns waited in fold, Ok(None) fallbacks)` so far.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.wait_ns.load(Ordering::Relaxed),
            self.fallbacks.load(Ordering::Relaxed),
        )
    }

    /// Request frames recorded while spans were on.
    pub fn frames(&self) -> Vec<String> {
        self.frames.lock().expect("frame log poisoned").clone()
    }

    fn timed(
        &self,
        frag: &FoldFragment,
        rows: &[ORow],
        fold: impl FnOnce() -> Result<Option<Vec<FoldPartial>>, EngineError>,
    ) -> Result<Option<Vec<FoldPartial>>, EngineError> {
        let span = self.spans.begin(
            "shard.fold",
            self.step.load(Ordering::Relaxed),
            self.query.load(Ordering::Relaxed),
        );
        let start = Instant::now();
        let out = fold();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.spans.end(span);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.wait_ns.fetch_add(ns, Ordering::Relaxed);
        if matches!(out, Ok(None)) {
            self.fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        if self.spans.on() {
            let mut frames = self.frames.lock().expect("frame log poisoned");
            if frames.len() < KEPT_FRAMES {
                use iolap_server::wire::{frag_json, rows_json};
                if let (Some(f), Some(r)) = (frag_json(frag), rows_json(rows)) {
                    frames.push(format!(
                        "{{\"op\":\"shard.fold\",\"base\":0,\"certain\":true,\"frag\":{f},\"rows\":{r}}}"
                    ));
                }
            }
        }
        out
    }
}

impl ShardExec for TimedShardExec {
    fn shards(&self) -> usize {
        self.inner.shards()
    }

    fn fold(
        &self,
        frag: &FoldFragment,
        rows: &[ORow],
        certain: bool,
    ) -> Result<Option<Vec<FoldPartial>>, EngineError> {
        self.timed(frag, rows, || self.inner.fold(frag, rows, certain))
    }

    fn bytes_shipped(&self) -> u64 {
        self.inner.bytes_shipped()
    }

    fn fold_traced(
        &self,
        frag: &FoldFragment,
        rows: &[ORow],
        certain: bool,
        trace: Option<&ShardTraceCtx<'_>>,
    ) -> Result<Option<Vec<FoldPartial>>, EngineError> {
        self.timed(frag, rows, || {
            self.inner.fold_traced(frag, rows, certain, trace)
        })
    }

    fn worker_stats(&self) -> Vec<ShardWorkerStats> {
        self.inner.worker_stats()
    }
}

/// An accept loop (`tcp::serve` or `serve_shard`) on a loopback port, run
/// on its own thread and stoppable from outside.
pub struct Listener {
    /// Where clients connect.
    pub addr: SocketAddr,
    control: TcpListener,
    thread: Option<JoinHandle<()>>,
}

impl Listener {
    /// Bind a loopback port and hand the listener to `accept_loop`.
    pub fn spawn(
        accept_loop: impl FnOnce(TcpListener) + Send + 'static,
    ) -> std::io::Result<Listener> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let control = listener.try_clone()?;
        let thread = std::thread::spawn(move || accept_loop(listener));
        Ok(Listener {
            addr,
            control,
            thread: Some(thread),
        })
    }

    /// End the accept loop and wait for its thread. Both loops leave on
    /// the first accept error, so the shared socket is made non-blocking
    /// and woken with one throw-away connection.
    pub fn stop(mut self) {
        let _ = self.control.set_nonblocking(true);
        drop(TcpStream::connect(self.addr));
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// `n` loopback shard workers and a timed pool connected to them.
pub fn start_shards(
    n: usize,
    spans: &Arc<Spans>,
) -> std::io::Result<(Vec<Listener>, Arc<TimedShardExec>)> {
    let workers = (0..n)
        .map(|_| Listener::spawn(serve_shard))
        .collect::<std::io::Result<Vec<_>>>()?;
    let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.addr).collect();
    let pool = TcpShardPool::connect(&addrs)?;
    pool.ping()
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    Ok((
        workers,
        Arc::new(TimedShardExec::new(pool, Arc::clone(spans))),
    ))
}
