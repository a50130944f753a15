//! One run of one workload: set up, measure for the asked time, check every
//! answer, and (traced) probe the layers.

use crate::inputs::{
    append_line, append_rows, config, queries, session_kinds, wire_seed, Env, SessionKind,
};
use crate::local::{
    final_matches, ms_since, report_canon, run_baseline, run_query, start_shards, Listener,
    TimedShardExec,
};
use crate::probes::{self, ProbeInput};
use crate::record::{peak_rss_mb, with_units, Layers, Metric, Prog, Samples};
use crate::serve::{
    masked, rows_as_parsed, solo_canon, sql_factory, submit, Client, Stream, TcpServer,
};
use crate::spans::Spans;
use crate::spec::{
    vetted_seeds, Kind, Scale, Workload, APPENDS_PER_SESSION, CI_TARGET, CLIENTS, DATA_SETS,
    REPORT_BUFFER, SETUP_REPEATS, SHARD_WORKERS,
};
use crate::stats::{median, mix};
use iolap_core::{BatchReport, TraceMode};
use iolap_relation::Relation;
use iolap_server::durable::{rows_to_relation, session_log_path};
use iolap_server::tcp::SubmitFactory;
use iolap_server::wire::JVal;
use iolap_server::ServerConfig;
use iolap_workloads::QuerySpec;
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Arguments of one run, as the benchmark contract passes them.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Whether this is the traced pass.
    pub trace: bool,
    /// Run at smoke scale instead of the pinned one.
    pub smoke: bool,
    /// Directory for span files and scratch data.
    pub out_dir: PathBuf,
}

/// What a run reports.
pub struct Outcome {
    /// Whether every answer was right.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

/// Which sample set a pass feeds.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Warmup,
    Untraced,
    Traced,
}

impl Mode {
    fn trace_mode(self) -> TraceMode {
        if self == Mode::Traced {
            TraceMode::Journal
        } else {
            TraceMode::Off
        }
    }
}

/// Counters of the serving layers, summed over slices.
#[derive(Default)]
struct ServeAcc {
    overhead_ms: Vec<f64>,
    rtt_us: Vec<f64>,
    rtt_plain_us: Vec<f64>,
    admitted: u64,
    rejected: u64,
    shed: u64,
    ci_sessions: u64,
    ci_met: u64,
    batches_saved: u64,
    append_ack_us: Vec<f64>,
    recover_ms: Vec<f64>,
    replayed_batches: u64,
    stale_digests: u64,
    recoveries: u64,
    segment_bytes: u64,
    report_bytes: u64,
    segment_frames: Vec<Vec<u8>>,
}

/// Data, factories and reference answers of a serving workload.
struct ServeEnv {
    /// The data sets the server holds; set `v` goes with driver seed `v`.
    envs: Vec<Env>,
    factory: [SubmitFactory; 2],
    kinds: Vec<SessionKind>,
}

/// The solo run a served session is checked against: its masked report
/// lines, and how many of them a `relative_ci` session must deliver.
struct Canon {
    lines: Vec<String>,
    ci_stop: usize,
}

struct Run<'a> {
    w: &'a Workload,
    scale: Scale,
    args: &'a Args,
    spans: Arc<Spans>,
    scratch: PathBuf,
    queries: Vec<QuerySpec>,
    warmup: Samples,
    untraced: Samples,
    traced: Samples,
    prog: Prog,
    layers: Layers,
    serve: ServeAcc,
    gen_s: Vec<f64>,
    passes: u64,
    next_qid: AtomicU32,
    kept: Option<(Env, Vec<BatchReport>)>,
    /// Solo canons by query id and data set, computed when first needed.
    canons: BTreeMap<(&'static str, usize), Canon>,
    wire_lines: Arc<Mutex<Vec<String>>>,
}

/// Run `args.workload` once.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let w = crate::spec::workload(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let scratch = args
        .out_dir
        .join(format!("tmp-{}-{}", w.name, std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let mut run = Run {
        w,
        scale: w.scale(args.smoke),
        args,
        spans: Arc::new(Spans::new(args.trace)),
        scratch: scratch.clone(),
        queries: queries(w),
        warmup: Samples::default(),
        untraced: Samples::default(),
        traced: Samples::default(),
        prog: Prog::default(),
        layers: Layers::default(),
        serve: ServeAcc::default(),
        gen_s: Vec::new(),
        passes: 0,
        next_qid: AtomicU32::new(1),
        kept: None,
        canons: BTreeMap::new(),
        wire_lines: Arc::new(Mutex::new(Vec::new())),
    };
    let outcome = run.measure();
    let _ = std::fs::remove_dir_all(&scratch);
    outcome
}

impl Run<'_> {
    fn samples(&mut self, mode: Mode) -> &mut Samples {
        match mode {
            Mode::Warmup => &mut self.warmup,
            Mode::Untraced => &mut self.untraced,
            Mode::Traced => &mut self.traced,
        }
    }

    /// The `k`-th draw of this run from the vetted pool: the seed of one
    /// pass's (or data set's, or round's) tables and driver.
    fn draw(&self, k: u64) -> u64 {
        1 + mix(self.args.seed, k) % vetted_seeds(self.args.smoke)
    }

    fn qid(&self) -> u32 {
        self.next_qid.fetch_add(1, Ordering::Relaxed)
    }

    /// Time spent running the workload: all of `--seconds` untraced; 60 %
    /// of it in the traced run, which leaves the rest to the probes.
    fn window(&self) -> Duration {
        let share = if self.args.trace { 0.6 } else { 1.0 };
        Duration::from_secs_f64(self.args.seconds * share)
    }

    /// Whether repeat `k` (pass, round or slice, from 0) runs traced. The
    /// traced run alternates, so that drift falls on both sides alike;
    /// the difference between the sides is the tracing overhead.
    fn mode(&self, k: u64) -> Mode {
        if self.args.trace && k % 2 == 1 {
            Mode::Traced
        } else {
            Mode::Untraced
        }
    }

    /// Repeat `once` until the window is over — in the traced run, not
    /// before a traced repeat has run.
    fn repeat(
        &mut self,
        mut once: impl FnMut(&mut Self, Mode) -> Result<(), String>,
    ) -> Result<(), String> {
        let deadline = Instant::now() + self.window();
        let mut k = 0;
        while Instant::now() < deadline || k < 1 + u64::from(self.args.trace) {
            self.passes += 1;
            once(self, self.mode(k))?;
            k += 1;
        }
        Ok(())
    }

    fn measure(&mut self) -> Result<Outcome, String> {
        let setups = if self.args.trace || self.args.smoke {
            1
        } else {
            SETUP_REPEATS
        };
        let mut setup_s = Vec::new();
        let serving = matches!(self.w.kind, Kind::Serve | Kind::Ingest);
        let mut factory = None;
        match self.w.kind {
            Kind::Local | Kind::Sharded => {
                let mut shards = None;
                for j in 0..setups {
                    let start = Instant::now();
                    self.warmup = Samples::default();
                    if let Some((workers, _)) = shards.take() {
                        stop_shards(workers);
                    }
                    if self.w.kind == Kind::Sharded {
                        shards = Some(
                            start_shards(SHARD_WORKERS, &self.spans).map_err(|e| e.to_string())?,
                        );
                    }
                    let pool = shards.as_ref().map(|(_, pool)| pool);
                    self.local_pass(Mode::Warmup, pool, self.draw(1000 + j as u64));
                    setup_s.push(start.elapsed().as_secs_f64());
                }
                let pool = shards.as_ref().map(|(_, pool)| Arc::clone(pool));
                self.repeat(|run, mode| {
                    run.local_pass(mode, pool.as_ref(), run.draw(run.passes));
                    Ok(())
                })?;
                if let Some((workers, pool)) = shards {
                    self.shard_layers(&pool);
                    stop_shards(workers);
                }
            }
            Kind::Serve | Kind::Ingest => {
                let mut se = None;
                for _ in 0..setups {
                    let start = Instant::now();
                    se = Some(self.serve_setup()?);
                    setup_s.push(start.elapsed().as_secs_f64());
                }
                let se = se.expect("at least one set-up");
                if self.w.kind == Kind::Serve {
                    // A server traces or it does not: four servers in turn.
                    let slices = if self.args.trace { 4 } else { 1 };
                    for k in 0..slices {
                        self.serve_slice(&se, self.mode(k), self.window() / slices as u32)?;
                    }
                } else {
                    self.repeat(|run, mode| run.ingest_round(&se, mode))?;
                }
                if self.args.trace {
                    // The solo runs are the served runs (the canon check
                    // just showed it), so their reports supply the engine
                    // counters the wire does not carry.
                    let mut reports = Vec::new();
                    for kind in se.kinds.iter().filter(|k| !k.ci) {
                        let (_, r) = solo_canon(
                            &se.envs[0],
                            &self.scale,
                            kind,
                            self.driver_seed(0),
                            TraceMode::Journal,
                        )?;
                        self.prog.absorb(&r);
                        reports.extend(r);
                    }
                    factory = Some(se.factory[0].clone());
                    self.kept = se.envs.into_iter().next().map(|env| (env, reports));
                }
            }
        }

        let (attempted, failed) = (
            self.untraced.attempted + self.traced.attempted,
            self.untraced.failed + self.traced.failed,
        );
        let metrics = if self.args.trace {
            self.per_layer(serving, factory.as_ref(), attempted, failed)?
        } else {
            let mut values = vec![("setup_s", median(&setup_s), setup_s.len())];
            values.extend(self.untraced.end_to_end(serving));
            with_units(values)
        };
        Ok(Outcome {
            correct: failed == 0 && attempted > 0,
            attempted,
            failed,
            metrics,
        })
    }

    /// Every query of the workload once, on data and a driver seed drawn
    /// from `sub_seed`: the one-shot baseline (its answer is the oracle),
    /// then the incremental run, timed as the client sees it. A sharded
    /// workload also runs each query unsharded and compares the streams.
    fn local_pass(&mut self, mode: Mode, shards: Option<&Arc<TimedShardExec>>, sub_seed: u64) {
        let env = Env::generate(&self.scale, sub_seed);
        self.gen_s.push(env.gen_s);
        let (spans, name) = (Arc::clone(&self.spans), self.w.name);
        let mut kept = Vec::new();
        for q in self.queries.clone() {
            let qid = self.qid();
            let (oracle, base_ms) = run_baseline(&env, &q, &spans, qid);
            let cfg = || config(&self.scale, wire_seed(sub_seed, 0)).trace_mode(mode.trace_mode());
            let solo = shards.map(|_| run_query(&env, &q, cfg(), None, &Spans::new(false), qid));
            let result = run_query(&env, &q, cfg(), shards, &spans, qid);
            let samples = self.samples(mode);
            samples.attempted += 1;
            samples.add_baseline(q.id, base_ms);
            match result {
                Err(e) => {
                    eprintln!("{name}: {e}");
                    samples.failed += 1;
                }
                Ok((run, reports)) => {
                    let same_as_solo = solo.is_none_or(|s| {
                        s.is_ok_and(|(_, solo)| {
                            solo.len() == reports.len()
                                && solo
                                    .iter()
                                    .zip(&reports)
                                    .all(|(a, b)| report_canon(a) == report_canon(b))
                        })
                    });
                    if !final_matches(&reports, &oracle) || !same_as_solo {
                        eprintln!("{name}: {} answered wrongly", q.id);
                        samples.failed += 1;
                    }
                    samples.wall_s += run.total_ms() / 1e3;
                    samples.add_run(&run);
                    if mode == Mode::Traced {
                        self.prog.absorb(&reports);
                        kept.extend(reports);
                    }
                }
            }
        }
        if mode == Mode::Traced {
            self.kept = Some((env, kept));
        }
    }

    fn shard_layers(&mut self, pool: &TimedShardExec) {
        use iolap_core::ShardExec;
        let (calls, wait_ns, fallbacks) = pool.counters();
        // The pool served the last warm-up pass and every measured one;
        // its counters are spread over those query runs.
        let runs = (self.warmup.runs() + self.untraced.runs() + self.traced.runs()).max(1) as f64;
        let workers = pool.worker_stats();
        let l = &mut self.layers;
        l.set("core.shard.fold_calls", calls as f64 / runs);
        l.set("core.shard.fold_wait_ms", wait_ns as f64 / 1e6 / runs);
        l.set(
            "core.shard.bytes_shipped",
            pool.bytes_shipped() as f64 / runs,
        );
        l.set("core.shard.local_fallbacks", fallbacks as f64 / runs);
        let folds: u64 = workers.iter().map(|w| w.folds).sum();
        let bytes: u64 = workers.iter().map(|w| w.response_bytes).sum();
        l.set("server.shard.worker_folds", folds as f64 / runs);
        l.set("server.shard.response_bytes", bytes as f64 / runs);
        self.wire_lines
            .lock()
            .expect("request log poisoned")
            .extend(pool.frames());
    }
}

/// A session a serving client finished, kept for checking after the clock
/// has stopped.
struct Held {
    kind: usize,
    /// Data set the session ran on.
    data: usize,
    /// Reports held when the server was killed (`ingest_durable`).
    before: Option<Stream>,
    stream: Stream,
    /// End label from the session summary (`relative_ci` sessions).
    end: Option<(String, u64, u64)>,
    /// Append lines this session's client sent, in order.
    appends: Vec<String>,
}

fn stop_shards(workers: Vec<Listener>) {
    for w in workers {
        w.stop();
    }
}

impl Run<'_> {
    /// Driver seed that goes with data set `v` of a serving workload.
    fn driver_seed(&self, v: usize) -> u64 {
        wire_seed(self.draw(v as u64), 0)
    }

    /// Set a serving workload up: the data sets, the two factories (tracing
    /// off and on), one solo run of every query as the warm-up pass, and
    /// one server started and stopped.
    fn serve_setup(&mut self) -> Result<ServeEnv, String> {
        // `ingest_durable` generates data per round; its set-up data only
        // serves the warm-up and the probes.
        let sets = if self.w.kind == Kind::Serve {
            DATA_SETS
        } else {
            1
        };
        let envs: Vec<Env> = (0..sets)
            .map(|v| Env::generate(&self.scale, self.draw(v as u64)))
            .collect();
        self.gen_s.push(envs.iter().map(|e| e.gen_s).sum());
        let factory =
            [TraceMode::Off, TraceMode::Journal].map(|m| sql_factory(&envs, &self.scale, m));
        let kinds: Vec<SessionKind> = session_kinds(self.w)
            .into_iter()
            .filter(|k| self.w.kind == Kind::Serve || !k.ci)
            .collect();
        for kind in kinds.iter().filter(|k| !k.ci) {
            solo_canon(
                &envs[0],
                &self.scale,
                kind,
                self.driver_seed(0),
                TraceMode::Off,
            )?;
        }
        TcpServer::start(ServerConfig::with_workers(1), &factory[0])
            .map_err(|e| e.to_string())?
            .stop();
        Ok(ServeEnv {
            envs,
            factory,
            kinds,
        })
    }

    /// The canon of `kind` on data set `v`, computed on first use: the
    /// one-shot baseline (timed; its answer is the oracle the solo run's
    /// final report must equal), then the solo run.
    fn canon(&mut self, se: &ServeEnv, kind: &SessionKind, v: usize) -> Result<&Canon, String> {
        let key = (kind.spec.id, v);
        if !self.canons.contains_key(&key) {
            let (oracle, base_ms) = run_baseline(&se.envs[v], &kind.spec, &Spans::new(false), 0);
            for s in [&mut self.untraced, &mut self.traced] {
                s.add_baseline(kind.spec.id, base_ms);
            }
            let (lines, reports) = solo_canon(
                &se.envs[v],
                &self.scale,
                kind,
                self.driver_seed(v),
                TraceMode::Off,
            )?;
            if !final_matches(&reports, &oracle) {
                return Err(format!(
                    "{}: solo run disagrees with the batch oracle",
                    kind.spec.id
                ));
            }
            let ci_stop = reports
                .iter()
                .position(|r| {
                    r.result
                        .max_relative_ci_halfwidth()
                        .is_some_and(|w| w <= CI_TARGET)
                })
                .map_or(reports.len(), |i| i + 1);
            self.canons.insert(key, Canon { lines, ci_stop });
        }
        Ok(&self.canons[&key])
    }

    fn keep_lines(&self) -> Option<Arc<Mutex<Vec<String>>>> {
        self.spans.on().then(|| Arc::clone(&self.wire_lines))
    }

    /// `serve_tcp` for `dur`: two closed-loop clients take session kinds
    /// from a shared, seeded order; each submits, polls to the end, and
    /// takes the next. Streams are checked after the clock stops.
    fn serve_slice(&mut self, se: &ServeEnv, mode: Mode, dur: Duration) -> Result<(), String> {
        let (traced, name) = (mode == Mode::Traced, self.w.name);
        let cfg = ServerConfig::with_workers(1).trace(mode.trace_mode());
        let tcp =
            TcpServer::start(cfg, &se.factory[usize::from(traced)]).map_err(|e| e.to_string())?;
        let addr = tcp.addr();
        let (start, seed, spans) = (Instant::now(), self.args.seed, Arc::clone(&self.spans));
        let deadline = start + dur;
        // What to submit next: every round is a seeded permutation of the
        // session kinds. Both clients run the same kind at the same time,
        // each on a data set of its own, so a session's competitor is
        // always its own kind and not whatever the other client drew.
        struct Order {
            round: u64,
            queue: VecDeque<usize>,
            taken: u64,
            current: usize,
        }
        let order = Mutex::new(Order {
            round: self.passes,
            queue: VecDeque::new(),
            taken: 0,
            current: 0,
        });
        let advance = || {
            let mut g = order.lock().expect("order poisoned");
            if g.queue.is_empty() {
                g.round += 1;
                g.queue = crate::inputs::round_order(seed, g.round, se.kinds.len()).into();
            }
            g.current = g.queue.pop_front().expect("refilled");
            g.taken += 1;
        };
        let current = |c: usize| {
            let g = order.lock().expect("order poisoned");
            (g.current, (g.taken as usize * CLIENTS + c) % se.envs.len())
        };
        let start_line = Barrier::new(CLIENTS);
        let (stop, abort) = (AtomicBool::new(false), AtomicBool::new(false));
        type ClientOutcome = Result<(Vec<Held>, Vec<f64>, Instant), String>;
        let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let (spans, advance, current) = (&spans, &advance, &current);
                    let (start_line, stop, abort) = (&start_line, &stop, &abort);
                    let keep = self.keep_lines();
                    let this = &*self;
                    scope.spawn(move || -> ClientOutcome {
                        let mut client = Client::connect(addr, keep).map_err(|e| e.to_string())?;
                        let mut held = Vec::new();
                        let mut failure = None;
                        loop {
                            // Both clients submit together: the first to
                            // arrive decides for both whether time is up
                            // and what comes next.
                            if start_line.wait().is_leader() {
                                let over =
                                    Instant::now() >= deadline || abort.load(Ordering::SeqCst);
                                stop.store(over, Ordering::SeqCst);
                                advance();
                            }
                            start_line.wait();
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                            let (kind, data) = current(c);
                            let qid = this.qid();
                            let line = se.kinds[kind].submit_line(
                                data,
                                this.driver_seed(data),
                                &format!("c{c}-{qid}"),
                            );
                            let mut session = || -> Result<Held, String> {
                                let submit_at = Instant::now();
                                let mut stream = submit(&mut client, &line, spans, qid)?;
                                stream.poll_until(
                                    &mut client,
                                    submit_at,
                                    usize::MAX,
                                    spans,
                                    qid,
                                )?;
                                let end = if se.kinds[kind].ci {
                                    let v = client.request_ok(&format!(
                                        "{{\"op\":\"summary\",\"session\":{}}}",
                                        stream.id
                                    ))?;
                                    let s = v.get("summary").ok_or("summary missing")?;
                                    let num =
                                        |k: &str| s.get(k).and_then(JVal::as_u64).unwrap_or(0);
                                    let end = s
                                        .get("end")
                                        .and_then(JVal::as_str)
                                        .unwrap_or("")
                                        .to_string();
                                    Some((end, num("batches_run"), num("total_batches")))
                                } else {
                                    None
                                };
                                Ok(Held {
                                    kind,
                                    data,
                                    before: None,
                                    stream,
                                    end,
                                    appends: Vec::new(),
                                })
                            };
                            match session() {
                                Ok(h) => held.push(h),
                                Err(e) => {
                                    // Keep meeting the other client at the
                                    // line until it, too, is told to stop.
                                    abort.store(true, Ordering::SeqCst);
                                    failure = Some(e);
                                }
                            }
                        }
                        if let Some(e) = failure {
                            return Err(e);
                        }
                        let finished = Instant::now();
                        // Socket + parse + encode floor: a `stats` round trip.
                        let mut rtt = Vec::new();
                        for _ in 0..if traced { 200 } else { 0 } {
                            let t = Instant::now();
                            client.request_ok("{\"op\":\"stats\"}")?;
                            rtt.push(t.elapsed().as_secs_f64() * 1e6);
                        }
                        Ok((held, rtt, finished))
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".to_string()))
                })
                .collect()
        });
        if traced {
            // The same round trip for a client with default ACK timing.
            let mut plain = Client::connect_plain(addr).map_err(|e| e.to_string())?;
            for _ in 0..5 {
                let t = Instant::now();
                plain.request_ok("{\"op\":\"stats\"}")?;
                self.serve
                    .rtt_plain_us
                    .push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        let stats = tcp.server.stats();
        tcp.stop();
        self.passes = order.into_inner().expect("order poisoned").round;
        self.serve.admitted += stats.admitted;
        self.serve.rejected += stats.rejected;
        self.serve.shed += stats.shed;

        let mut finished = start;
        for outcome in outcomes {
            let (held, rtt, at) = match outcome {
                Ok(x) => x,
                Err(e) => {
                    eprintln!("{}: client failed: {e}", self.w.name);
                    let s = self.samples(mode);
                    s.attempted += 1;
                    s.failed += 1;
                    continue;
                }
            };
            self.serve.rtt_us.extend(rtt);
            finished = finished.max(at);
            for h in held {
                let kind = &se.kinds[h.kind];
                let canon = self.canon(se, kind, h.data)?;
                let got = &h.stream.reports;
                let expect = if kind.ci {
                    canon.ci_stop
                } else {
                    canon.lines.len()
                };
                let mut ok = h.stream.state == "done"
                    && got.len() == expect
                    && got.iter().zip(&canon.lines).all(|(r, c)| masked(r) == *c);
                if let Some((end, run, total)) = &h.end {
                    let early = expect < canon.lines.len();
                    ok &= end == if early { "target_met" } else { "completed" };
                    self.serve.ci_sessions += 1;
                    self.serve.ci_met += u64::from(end == "target_met");
                    self.serve.batches_saved += total.saturating_sub(*run);
                }
                let table_rows = se.envs[h.data]
                    .catalog
                    .get(kind.spec.stream_table)
                    .map_or(0, |t| t.len());
                let fraction = got
                    .last()
                    .and_then(|r| r.get("fraction").and_then(JVal::as_f64))
                    .unwrap_or(0.0);
                let run = h
                    .stream
                    .query_run(kind, (table_rows as f64 * fraction) as usize, None);
                self.serve.overhead_ms.extend(&h.stream.overhead_ms);
                self.serve.report_bytes += h.stream.report_bytes as u64;
                let s = self.samples(mode);
                s.attempted += 1;
                if !ok {
                    eprintln!(
                        "{name}: session {} diverged from its solo canon",
                        kind.label()
                    );
                    s.failed += 1;
                }
                s.add_run(&run);
            }
        }
        // Clients start together; each stops at its first session boundary
        // past the deadline, and the wall runs to the later of the two.
        self.samples(mode).wall_s += (finished - start).as_secs_f64();
        Ok(())
    }
}

/// Whether a final report off the wire carries the oracle's exact answer.
fn wire_answer_matches(report: &JVal, oracle: &Relation) -> bool {
    if report.get("fraction").and_then(JVal::as_f64) != Some(1.0) {
        return false;
    }
    match report.get("rows") {
        Some(JVal::Arr(rows)) if rows.is_empty() => oracle.is_empty(),
        Some(rows) => {
            rows_to_relation(rows, oracle.schema()).is_ok_and(|r| r.approx_eq(oracle, 1e-6))
        }
        None => false,
    }
}

/// Bytes of every file directly under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

impl Run<'_> {
    /// One round of `ingest_durable`: a fresh durable directory and
    /// server; each client submits a session on its own table and appends
    /// rows to it between polls. Once both hold the reports that show their
    /// last append logged, the server is killed. A new server on the same
    /// directory recovers; the clients reconnect, resume and drain.
    /// Everything is checked after the round.
    fn ingest_round(&mut self, se: &ServeEnv, mode: Mode) -> Result<(), String> {
        let (round, name) = (self.passes, self.w.name);
        let dir = self.scratch.join(format!("r{round}"));
        // Every round starts a server anyway, so every round gets data of
        // its own: what depends on the data (when a CI target is met) is
        // then averaged inside a run, not only across runs.
        let env = Env::generate(&self.scale, self.draw(round));
        self.gen_s.push(env.gen_s);
        let env = [env];
        let factory = &sql_factory(&env, &self.scale, mode.trace_mode());
        let [env] = env;
        let cfg = || {
            // Two undelivered reports park a session until its client polls,
            // so a session cannot run to its end while its client is still
            // appending, nor past the point the server is killed at.
            ServerConfig::with_workers(1)
                .report_buffer(REPORT_BUFFER)
                .durable(dir.clone())
                .durable_fsync(true)
                .trace(mode.trace_mode())
        };
        let tcp = TcpServer::start(cfg(), factory).map_err(|e| e.to_string())?;
        let first_addr = tcp.addr();
        // Client 0 streams `sessions`, client 1 `lineorder`, so an append
        // reaches exactly the sender's own session.
        let tables = ["sessions", "lineorder"];
        let (killed, restarted) = (Barrier::new(CLIENTS + 1), Barrier::new(CLIENTS + 1));
        let second_addr = Mutex::new(None);
        let (seed, spans) = (self.args.seed, Arc::clone(&self.spans));
        let driver_seed = wire_seed(self.draw(round), 0);
        type ClientOutcome = Result<(Held, Vec<f64>), String>;
        let (outcomes, recovery) = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let own: Vec<usize> = (0..se.kinds.len())
                        .filter(|&k| se.kinds[k].spec.stream_table == tables[c])
                        .collect();
                    // The same pairs every run: who a session competes with
                    // decides its waits, and must not move with the seed.
                    let kind = own[(round % own.len() as u64) as usize];
                    let (spans, killed, restarted, second_addr) =
                        (&spans, &killed, &restarted, &second_addr);
                    let keep = self.keep_lines();
                    let qid = self.qid();
                    scope.spawn(move || -> ClientOutcome {
                        let table = tables[c];
                        let mut acks = Vec::new();
                        let mut appends = Vec::new();
                        let submit_at = Instant::now();
                        // Up to the kill. Barriers are passed whatever happens.
                        let before = (|| -> Result<(Client, Stream), String> {
                            let mut client = Client::connect(first_addr, keep.clone())
                                .map_err(|e| e.to_string())?;
                            let line =
                                se.kinds[kind].submit_line(0, driver_seed, &format!("c{c}-{qid}"));
                            let mut stream = submit(&mut client, &line, spans, qid)?;
                            for k in 0..APPENDS_PER_SESSION {
                                let salt = 0xA000 + round * 64 + (c * 8 + k) as u64;
                                let line =
                                    append_line(table, &append_rows(table, wire_seed(seed, salt)));
                                let t = Instant::now();
                                let ack = client.request_ok(&line)?;
                                acks.push(t.elapsed().as_secs_f64() * 1e6);
                                if ack.get("sessions").and_then(JVal::as_u64) != Some(1) {
                                    return Err(format!("append reached {}", ack.render()));
                                }
                                appends.push(line);
                                // An append is acknowledged when queued and
                                // logged when the session is next picked.
                                // Of the reports that follow an ack, up to
                                // REPORT_BUFFER were made before it; one more
                                // shows a pick after it. Only then may the
                                // server die without losing what it acked.
                                let logged = stream.reports.len() + REPORT_BUFFER + 1;
                                let until = if k + 1 < APPENDS_PER_SESSION {
                                    k + 1
                                } else {
                                    logged
                                };
                                stream.poll_until(&mut client, submit_at, until, spans, qid)?;
                            }
                            Ok((client, stream))
                        })();
                        killed.wait();
                        restarted.wait();
                        // The dead server's connection stays open until the
                        // round is over: closing it would make the old
                        // process "cancel" a session it no longer owns.
                        let (_old, before) = before?;
                        let addr = second_addr
                            .lock()
                            .expect("addr poisoned")
                            .ok_or("no second server")?;
                        let mut client = Client::connect(addr, keep).map_err(|e| e.to_string())?;
                        client.request_ok(&format!(
                            "{{\"op\":\"resume\",\"session\":{}}}",
                            before.id
                        ))?;
                        let mut stream = Stream {
                            id: before.id,
                            ..Stream::default()
                        };
                        stream.poll_until(&mut client, submit_at, usize::MAX, spans, qid)?;
                        let held = Held {
                            kind,
                            data: 0,
                            before: Some(before),
                            stream,
                            end: None,
                            appends,
                        };
                        Ok((held, acks))
                    })
                })
                .collect();
            killed.wait();
            drop(tcp.stop());
            let span = spans.begin("server.recover", crate::spans::NONE, 0);
            let start = Instant::now();
            let second = TcpServer::start(cfg(), factory).ok().map(|tcp| {
                let report = tcp.server.recover(factory);
                (tcp, report, ms_since(start))
            });
            spans.end(span);
            *second_addr.lock().expect("addr poisoned") =
                second.as_ref().map(|(tcp, ..)| tcp.addr());
            restarted.wait();
            let outcomes: Vec<ClientOutcome> = clients
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".to_string()))
                })
                .collect();
            (outcomes, second)
        });
        let Some((tcp, recovery, recover_ms)) = recovery else {
            return Err("second server failed to start".to_string());
        };
        let stats = tcp.server.stats();
        tcp.stop();
        self.serve.admitted += stats.admitted;
        self.serve.rejected += stats.rejected;
        self.serve.shed += stats.shed;
        self.serve.recover_ms.push(recover_ms);
        self.serve.recoveries += 1;
        self.serve.replayed_batches += recovery.replayed_batches as u64;
        self.serve.stale_digests += recovery.stale_digests as u64;
        self.serve.segment_bytes += dir_bytes(&dir);
        let s = self.samples(mode);
        s.attempted += 1;
        if recovery.resumed.len() != CLIENTS
            || !recovery.skipped.is_empty()
            || recovery.stale_digests > 0
        {
            eprintln!(
                "{name}: recovery resumed {:?}, skipped {:?}",
                recovery.resumed, recovery.skipped
            );
            s.failed += 1;
        }

        for outcome in outcomes {
            // A session is its submit, its appends and its stream.
            self.samples(mode).attempted += 1 + APPENDS_PER_SESSION as u64;
            let (h, acks) = match outcome {
                Ok(x) => x,
                Err(e) => {
                    eprintln!("{}: client failed: {e}", self.w.name);
                    self.samples(mode).failed += 1;
                    continue;
                }
            };
            let kind = &se.kinds[h.kind];
            let before = h.before.as_ref().expect("ingest sessions are resumed");
            let schema = env
                .catalog
                .schema(kind.spec.stream_table)
                .map_err(|e| e.to_string())?;
            let appended = h
                .appends
                .iter()
                .map(|l| rows_as_parsed(l, &schema))
                .collect::<Result<Vec<_>, _>>()?;
            let catalog = env.with_appended(kind.spec.stream_table, &appended);
            // One-shot execution over everything the session consumed: the
            // oracle for its final answer and the base of its slowdown.
            let start = Instant::now();
            let oracle = iolap_baselines::run_baseline(kind.spec.sql, &catalog, &env.registry)
                .map_err(|e| e.to_string())?
                .relation;
            self.samples(mode)
                .add_baseline(&kind.label(), ms_since(start));
            let after = &h.stream.reports;
            // The resumed stream replays what the client already held,
            // byte for byte, then runs on to the exact answer over the
            // base rows and every appended row.
            let ok = h.stream.state == "done"
                && after.len() == self.scale.batches + APPENDS_PER_SESSION
                && before
                    .reports
                    .iter()
                    .zip(after)
                    .all(|(a, b)| masked(a) == masked(b))
                && after
                    .last()
                    .is_some_and(|r| wire_answer_matches(r, &oracle));
            if !ok {
                eprintln!(
                    "{}: resumed session {} is wrong: state {}, {} reports before the kill, {} after (want {})",
                    self.w.name,
                    kind.label(),
                    h.stream.state,
                    before.reports.len(),
                    after.len(),
                    self.scale.batches + APPENDS_PER_SESSION
                );
                self.samples(mode).failed += 1;
            }
            // What the client saw: its reports up to the kill, then the
            // ones it had not seen yet.
            let held_before = before.reports.len().min(after.len());
            let mut seen = Stream::default();
            for (src, range) in [
                (before, 0..held_before),
                (&h.stream, held_before..after.len()),
            ] {
                seen.arrivals_ms.extend(&src.arrivals_ms[range.clone()]);
                seen.reports.extend(src.reports[range].iter().cloned());
            }
            let rows = catalog.get(kind.spec.stream_table).map_or(0, |t| t.len());
            let run = seen.query_run(kind, rows, Some(held_before));
            self.serve.append_ack_us.extend(acks);
            self.serve.overhead_ms.extend(&before.overhead_ms);
            self.serve.report_bytes += (before.report_bytes + h.stream.report_bytes) as u64;
            let s = self.samples(mode);
            s.wall_s += run.total_ms() / 1e3 / CLIENTS as f64;
            s.add_run(&run);
            if self.spans.on() && self.serve.segment_frames.is_empty() {
                if let Ok(scan) = iolap_store::scan_segment(&session_log_path(&dir, before.id)) {
                    self.serve.segment_frames = scan.frames;
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    /// Everything the traced run reports.
    fn per_layer(
        &mut self,
        serving: bool,
        factory: Option<&SubmitFactory>,
        attempted: u64,
        failed: u64,
    ) -> Result<Vec<Metric>, String> {
        let mut layers = std::mem::take(&mut self.layers);
        self.prog.report(&mut layers);
        if let Some((env, reports)) = &self.kept {
            let wire_lines = self
                .wire_lines
                .lock()
                .expect("request log poisoned")
                .clone();
            let input = ProbeInput {
                env,
                queries: &self.queries,
                scale: &self.scale,
                reports,
                wire_lines: &wire_lines,
                serving,
                factory,
                segment_frames: &self.serve.segment_frames,
                scratch: &self.scratch,
                budget: Duration::from_secs_f64(self.args.seconds * 0.4 / 16.0),
            };
            probes::run(&input, &self.spans, &mut layers);
        }
        let a = &self.serve;
        layers.set(
            "engine.batch_exec_ms",
            self.traced.baseline_ms() / self.queries.len() as f64,
        );
        layers.set("server.tcp.rtt_us", median(&a.rtt_us));
        layers.set("server.tcp.rtt_plain_us", median(&a.rtt_plain_us));
        layers.set(
            "server.scheduler.overhead_per_batch_ms",
            median(&a.overhead_ms),
        );
        layers.set("server.scheduler.admitted", a.admitted as f64);
        layers.set("server.scheduler.rejected", a.rejected as f64);
        layers.set("server.scheduler.shed", a.shed as f64);
        if a.ci_sessions > 0 {
            layers.set(
                "server.session.target_met_share",
                a.ci_met as f64 / a.ci_sessions as f64,
            );
            layers.set(
                "server.session.batches_saved",
                a.batches_saved as f64 / a.ci_sessions as f64,
            );
        }
        layers.set("server.durable.append_ack_us", median(&a.append_ack_us));
        layers.set("server.durable.recover_ms", median(&a.recover_ms));
        if a.recoveries > 0 {
            layers.set(
                "server.durable.replayed_batches",
                a.replayed_batches as f64 / a.recoveries as f64,
            );
            layers.set(
                "server.durable.stale_digests",
                a.stale_digests as f64 / a.recoveries as f64,
            );
            layers.set(
                "store.bytes_per_report_byte",
                a.segment_bytes as f64 / a.report_bytes as f64,
            );
        }
        layers.set("workloads.gen_s", median(&self.gen_s));
        let (off, on) = (self.untraced.sum_of_totals(), self.traced.sum_of_totals());
        layers.set("trace.overhead_pct", 100.0 * (on / off - 1.0));
        layers.set(
            "harness.fail_share",
            failed as f64 / attempted.max(1) as f64,
        );
        layers.set("harness.peak_rss_mb", peak_rss_mb());

        let path = self
            .args
            .out_dir
            .join(format!("trace-{}.jsonl", self.w.name));
        self.spans
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        for (name, ns) in self.spans.self_time_ns() {
            println!("self_time {name} {:.3} ms", ns as f64 / 1e6);
        }
        Ok(layers.all())
    }
}
