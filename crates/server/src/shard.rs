//! Shard workers and the coordinator pool: scale-out execution of
//! aggregate fold fragments (§8).
//!
//! [`TcpShardPool`] is the one [`ShardExec`] in the tree. Worker processes
//! run [`serve_shard`] accept loops and the coordinator holds one
//! persistent connection per worker. The `iolap_core::shard` grid (see its
//! module docs for the bit-identity rules) is split into at most one
//! contiguous *block* of partitions per worker; each block ships as one
//! `shard.fold` frame ([`wire::frag_json`] + [`wire::rows_json`]), blocks
//! run concurrently (inline when there is only one), and the partial-state
//! frames that come back ([`wire::partial_json`]) are concatenated in block
//! order, one partial per partition. "Bytes shipped" is the measured byte
//! length of those response lines — the paper's data-shipped axis.
//!
//! The pool honors the `Ok(None)` fallback contract: anything that cannot
//! be shipped (lineage cells in a row, an unencodable literal) makes `fold`
//! return `Ok(None)` and the coordinator folds the same grid locally.
//! Shard-side failures (dead connection, malformed frame, a reply that does
//! not answer its block) are `Err`: silently degrading to a different merge
//! tree is exactly what the determinism contract forbids, so the batch fails
//! loudly instead. A connection whose exchange failed is never used again,
//! because a late reply to the failed request would otherwise be read as the
//! answer to the next one.

use crate::wire::{
    self, fold_request_json, fold_response_json, frag_from_json, frag_json, partial_from_json,
    rows_from_json, rows_json, JVal,
};
use iolap_core::shard::partition_bounds;
use iolap_core::trace::{SpanId, Tracer};
use iolap_core::{
    fold_fragment_partition, AccState, EngineError, FoldFragment, FoldPartial, FragKind, FragSrc,
    ORow, ShardExec, ShardTraceCtx, ShardWorkerStats,
};
use std::io::{BufRead, BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// One worker-journal span summary, as shipped back over the wire:
/// `(name, payload count, detail)`. No timestamps cross the shard
/// boundary — the coordinator stitches these as instants under the
/// dispatching operator span, so normalized exports stay byte-stable.
type SpanSummary = (String, u64, String);

/// Map a wire span name back to the static name table. Unknown names
/// (a newer worker) degrade to a generic label instead of an error.
fn summary_name(name: &str) -> &'static str {
    match name {
        "shard.worker.fold" => "shard.worker.fold",
        "shard.worker.partials" => "shard.worker.partials",
        _ => "shard.worker.span",
    }
}

// ---------------------------------------------------------------------------
// Worker side of the wire protocol
// ---------------------------------------------------------------------------

fn err_frame(kind: &str, msg: &str) -> String {
    JVal::obj(vec![
        ("ok", JVal::Bool(false)),
        (
            "error",
            JVal::obj(vec![("kind", kind.into()), ("msg", msg.into())]),
        ),
    ])
    .render()
}

/// Most bootstrap trials a `shard.fold` request may ask for: far above the
/// paper's 100 and any trial count the experiments sweep, and small enough
/// that the fold's per-group trial vectors cannot exhaust memory.
const MAX_FOLD_TRIALS: usize = 10_000;

/// Why a decoded fold request cannot be folded as sent: a trial count past
/// [`MAX_FOLD_TRIALS`] (the fold allocates two vectors of that length per
/// group and call), a `base` whose partition indices would overflow, a
/// group or argument column past the end of a row (the kernel would index
/// out of bounds), or a weight vector whose length is not the fragment's
/// trial count (the trial kernels would silently truncate it).
fn check_fold_input(frag: &FoldFragment, rows: &[ORow], base: usize) -> Result<(), &'static str> {
    if frag.trials > MAX_FOLD_TRIALS {
        return Err("trial count above the fold limit");
    }
    if base
        .checked_add(partition_bounds(rows.len()).count())
        .is_none()
    {
        return Err("base partition index overflows");
    }
    let args = frag.srcs.iter().filter_map(|s| match s {
        FragSrc::Col(j) => Some(*j),
        FragSrc::Lit(_) => None,
    });
    let last_col = frag.group_cols.iter().copied().chain(args).max();
    for row in rows {
        if last_col.is_some_and(|c| c >= row.values.len()) {
            return Err("column index past the end of a row");
        }
        if row.weights.as_ref().is_some_and(|w| w.len() != frag.trials) {
            return Err("weight vector length differs from trials");
        }
    }
    Ok(())
}

/// Handle one NDJSON request line of the shard worker protocol. Pure, so
/// it is unit-testable without sockets:
///
/// * `{"op":"shard.ping"}` → `{"ok":true,"pong":true}`
/// * `{"op":"shard.fold","base":B,"certain":C,"frag":F,"rows":R}` →
///   `{"ok":true,"partials":[...]}` — folds the rows on the grid and
///   returns one partial per partition, indices offset by `base` (the
///   global index of the block's first partition). Anything
///   [`check_fold_input`] refuses is a `bad_request`. An
///   optional `"trace":{"span":S,"batch":B}` member makes the worker run
///   the fold under a local journal and append
///   `"spans":[{"name","n","d"}]` summaries (no timestamps) for the
///   coordinator to stitch.
pub fn handle_shard_request(line: &str) -> String {
    let req = match wire::parse(line) {
        Ok(v) => v,
        Err(e) => return err_frame("bad_json", &e.to_string()),
    };
    match req.get("op").and_then(JVal::as_str) {
        Some("shard.ping") => {
            JVal::obj(vec![("ok", JVal::Bool(true)), ("pong", JVal::Bool(true))]).render()
        }
        Some("shard.fold") => {
            let Some(frag) = req.get("frag").and_then(frag_from_json) else {
                return err_frame("bad_request", "missing or malformed frag");
            };
            let Some(rows) = req.get("rows").and_then(rows_from_json) else {
                return err_frame("bad_request", "missing or malformed rows");
            };
            let Some(certain) = req.get("certain").and_then(JVal::as_bool) else {
                return err_frame("bad_request", "missing certain flag");
            };
            let Some(base) = req
                .get("base")
                .and_then(JVal::as_u64)
                .and_then(|b| usize::try_from(b).ok())
            else {
                return err_frame("bad_request", "missing base partition");
            };
            if let Err(why) = check_fold_input(&frag, &rows, base) {
                return err_frame("bad_request", why);
            }
            // A traced fold runs under a worker-local journal: no shared
            // clock with the coordinator, so only name/count/detail (never
            // timestamps) flow back as compact span summaries.
            let trace_parent = req.get("trace").map(|t| {
                (
                    t.get("span").and_then(JVal::as_u64).unwrap_or(0),
                    t.get("batch").and_then(JVal::as_u64).unwrap_or(0) as usize,
                )
            });
            let journal = trace_parent.map(|(_, batch)| {
                let t = Tracer::new();
                let span = t.begin("shard.worker.fold", batch, SpanId::NONE);
                (t, span, batch)
            });
            let Some(mut partials) = fold_fragment_partition(&frag, &rows, certain) else {
                // Decoded rows can never carry lineage (the codec rejects
                // it), so this is defensive — but the coordinator must
                // hear "unfoldable", not a partial, to fall back.
                return err_frame("unfoldable", "fragment not interpretable over these rows");
            };
            // `check_fold_input` bounded `base` + partition count.
            for p in &mut partials {
                p.partition += base;
            }
            let spans = journal.map(|(t, span, batch)| {
                t.instant(
                    "shard.worker.partials",
                    batch,
                    span,
                    partials.len() as u64,
                    format!("base={base}"),
                );
                t.end(
                    "shard.worker.fold",
                    batch,
                    span,
                    SpanId::NONE,
                    rows.len() as u64,
                );
                JVal::Arr(
                    t.events()
                        .iter()
                        .filter(|e| e.kind != iolap_core::trace::EventKind::Begin)
                        .map(|e| {
                            JVal::obj(vec![
                                ("name", e.name.into()),
                                ("n", e.n.into()),
                                ("d", e.detail.as_str().into()),
                            ])
                        })
                        .collect(),
                )
            });
            fold_response_json(&partials, spans.as_ref())
                .unwrap_or_else(|| err_frame("unfoldable", "partial not encodable"))
        }
        _ => err_frame("bad_request", "unknown op"),
    }
}

/// Worker accept loop: one thread per coordinator connection, each line
/// through [`handle_shard_request`]. Runs until the listener errors.
pub fn serve_shard(listener: TcpListener) {
    for stream in listener.incoming() {
        let Ok(stream) = stream else { break };
        let _ = stream.set_nodelay(true);
        std::thread::spawn(move || {
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
                let mut response = handle_shard_request(line.trim());
                // One write per line, as in `tcp::serve`.
                response.push('\n');
                if writer.write_all(response.as_bytes()).is_err() {
                    break;
                }
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Coordinator side of the wire protocol
// ---------------------------------------------------------------------------

/// How long the coordinator waits on a worker response before declaring
/// the shard dead. Bounded blocking: no indefinite `read_line`.
const SHARD_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// A contiguous run of grid partitions dispatched to one shard.
#[derive(Clone, Copy, Debug)]
struct Block {
    /// Shard (and block) index.
    shard: usize,
    /// Global index of the block's first partition.
    base: usize,
    /// Number of partitions in the block.
    parts: usize,
    /// First row of the block.
    lo: usize,
    /// One past the block's last row.
    hi: usize,
}

/// What one shard returned for its block.
struct BlockYield {
    /// One partial per partition of the block, globally indexed.
    partials: Vec<FoldPartial>,
    /// Byte length of the response line: the shipped partial state.
    bytes: u64,
    /// Span summaries to stitch under the fold's trace parent.
    spans: Vec<SpanSummary>,
}

/// A block's fold: `None` when the block cannot be shipped and the
/// coordinator must fold the whole grid locally.
type BlockFold = Result<Option<BlockYield>, EngineError>;

/// Whether a worker's partial has the shape of the fragment it answers:
/// per group, one key cell per group column and one call per fragment
/// call, each with the call's accumulator kind and `trials`-long trial
/// vectors. The coordinator's merge zips calls and trial slots, so a
/// missing call or a short vector would otherwise be dropped silently.
fn partial_fits(frag: &FoldFragment, p: &FoldPartial) -> bool {
    p.groups.iter().all(|g| {
        g.key.len() == frag.group_cols.len()
            && g.calls.len() == frag.kinds.len()
            && g.calls.iter().zip(&frag.kinds).all(|(c, kind)| {
                let same_kind = matches!(
                    (&c.acc, kind),
                    (AccState::Count { .. }, FragKind::Count)
                        | (AccState::Sum { .. }, FragKind::Sum)
                        | (AccState::Avg { .. }, FragKind::Avg)
                );
                same_kind && c.a.len() == frag.trials && c.b.len() == frag.trials
            })
    })
}

struct ShardConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Set by the first failed exchange. After a write error, a read
    /// timeout or a cut-off line the stream is out of step with its
    /// requests (a late reply may still arrive), so it is never used again.
    lost: bool,
}

impl ShardConn {
    /// One request/response exchange. Returns the response line, newline
    /// included (its bytes are the shipped partial state).
    fn exchange(&mut self, request: &str) -> Result<String, EngineError> {
        if self.lost {
            return Err(EngineError::Plan("shard connection lost".to_string()));
        }
        let line = self.round_trip(request);
        self.lost = line.is_err();
        line
    }

    fn round_trip(&mut self, request: &str) -> Result<String, EngineError> {
        let io_err = |e: std::io::Error| EngineError::Plan(format!("shard connection: {e}"));
        let mut frame = String::with_capacity(request.len() + 1);
        frame.push_str(request);
        frame.push('\n');
        self.writer.write_all(frame.as_bytes()).map_err(io_err)?;
        let mut line = String::new();
        self.reader.read_line(&mut line).map_err(io_err)?;
        if !line.ends_with('\n') {
            return Err(EngineError::Plan("shard connection closed".to_string()));
        }
        Ok(line)
    }
}

/// Coordinator-side pool over persistent TCP connections to
/// [`serve_shard`] workers. Worker `i` folds partition block `i`; the
/// blocks' requests run concurrently, and the measured response-line
/// bytes accumulate into [`ShardExec::bytes_shipped`].
pub struct TcpShardPool {
    conns: Vec<Mutex<ShardConn>>,
    /// Per-shard counters, in shard order.
    stats: Mutex<Vec<ShardWorkerStats>>,
}

impl TcpShardPool {
    /// Connect to every worker address; fails if any is unreachable, or
    /// with `InvalidInput` when `addrs` is empty.
    pub fn connect<A: std::net::ToSocketAddrs>(addrs: &[A]) -> std::io::Result<TcpShardPool> {
        if addrs.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a shard pool needs at least one worker address",
            ));
        }
        let mut conns = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let stream = TcpStream::connect(addr)?;
            stream.set_read_timeout(Some(SHARD_READ_TIMEOUT))?;
            stream.set_nodelay(true)?;
            let reader = BufReader::new(stream.try_clone()?);
            conns.push(Mutex::new(ShardConn {
                writer: stream,
                reader,
                lost: false,
            }));
        }
        let stats = (0..conns.len())
            .map(|shard| ShardWorkerStats {
                shard,
                ..ShardWorkerStats::default()
            })
            .collect();
        Ok(TcpShardPool {
            conns,
            stats: Mutex::new(stats),
        })
    }

    /// Poison-recovering lock: no block holds it (accounting happens
    /// after every block has joined), so the counters stay consistent.
    fn stats(&self) -> MutexGuard<'_, Vec<ShardWorkerStats>> {
        self.stats.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Lock a shard's connection. A poisoned lock means another dispatch
    /// thread died mid-exchange; the stream may hold a half-written frame,
    /// so fail rather than panic (or worse, desync the line protocol).
    fn conn(&self, shard: usize) -> Result<MutexGuard<'_, ShardConn>, EngineError> {
        self.conns[shard]
            .lock()
            .map_err(|_| EngineError::Plan("shard connection poisoned".to_string()))
    }

    /// Round-trip a `shard.ping` on every connection.
    pub fn ping(&self) -> Result<(), EngineError> {
        for shard in 0..self.conns.len() {
            let line = self
                .conn(shard)?
                .exchange(&JVal::obj(vec![("op", "shard.ping".into())]).render())?;
            let ok = wire::parse(line.trim())
                .ok()
                .and_then(|v| v.get("ok").and_then(JVal::as_bool))
                .unwrap_or(false);
            if !ok {
                return Err(EngineError::Plan("shard ping rejected".to_string()));
            }
        }
        Ok(())
    }

    /// Ship one block's rows to its worker in a `shard.fold` request and
    /// parse the partials (and, when `trace` is set, the worker's
    /// span summaries) out of the response.
    fn fold_remote(
        &self,
        block: Block,
        frag: &FoldFragment,
        frag_frame: &str,
        rows: &[ORow],
        certain: bool,
        trace: Option<(SpanId, usize)>,
    ) -> BlockFold {
        let Some(rows_frame) = rows_json(rows) else {
            return Ok(None); // lineage cell → coordinator folds locally
        };
        let request = fold_request_json(block.base, certain, trace, frag_frame, &rows_frame);
        let line = self.conn(block.shard)?.exchange(&request)?;
        let resp = wire::parse(line.trim())
            .map_err(|e| EngineError::Plan(format!("shard response: {e}")))?;
        if resp.get("ok").and_then(JVal::as_bool) != Some(true) {
            let kind = resp
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(JVal::as_str)
                .unwrap_or("unknown");
            if kind == "unfoldable" {
                return Ok(None);
            }
            return Err(EngineError::Plan(format!("shard fold failed: {kind}")));
        }
        let Some(JVal::Arr(items)) = resp.get("partials") else {
            return Err(EngineError::Plan("shard response missing partials".into()));
        };
        let partials: Option<Vec<FoldPartial>> = items.iter().map(partial_from_json).collect();
        let partials =
            partials.ok_or_else(|| EngineError::Plan("malformed shard partial".to_string()))?;
        // The reply comes from outside the process: it must hold exactly
        // one partial per partition of this block, in grid order, each
        // shaped like the fragment sent, or the merge would fold a wrong
        // answer.
        if !partials
            .iter()
            .map(|p| p.partition)
            .eq(block.base..block.base + block.parts)
        {
            return Err(EngineError::Plan(
                "shard partials do not match the block sent".to_string(),
            ));
        }
        if !partials.iter().all(|p| partial_fits(frag, p)) {
            return Err(EngineError::Plan(
                "shard partials do not match the fragment sent".to_string(),
            ));
        }
        let spans: Vec<SpanSummary> = match resp.get("spans") {
            Some(JVal::Arr(spans)) => spans
                .iter()
                .map(|s| {
                    (
                        s.get("name")
                            .and_then(JVal::as_str)
                            .unwrap_or_default()
                            .to_string(),
                        s.get("n").and_then(JVal::as_u64).unwrap_or_default(),
                        s.get("d")
                            .and_then(JVal::as_str)
                            .unwrap_or_default()
                            .to_string(),
                    )
                })
                .collect(),
            _ => Vec::new(),
        };
        Ok(Some(BlockYield {
            partials,
            bytes: line.len() as u64,
            spans,
        }))
    }

    /// Split the grid over `rows` into at most one contiguous block per
    /// shard and fold each on its worker — inline when there is one block,
    /// on scoped threads otherwise. A panicking block becomes an
    /// `EngineError`. Partials are concatenated in block order, and span
    /// summaries are stitched under `trace` after every block has joined,
    /// also in block order, so the journal is deterministic for a fixed
    /// topology even though the blocks raced. `Ok(None)` when any block
    /// yields `None`.
    fn dispatch(
        &self,
        frag: &FoldFragment,
        frag_frame: &str,
        rows: &[ORow],
        certain: bool,
        trace: Option<&ShardTraceCtx<'_>>,
    ) -> Result<Option<Vec<FoldPartial>>, EngineError> {
        let bounds: Vec<(usize, usize)> = partition_bounds(rows.len()).collect();
        if bounds.is_empty() {
            return Ok(Some(Vec::new()));
        }
        let per = bounds.len().div_ceil(self.conns.len());
        let blocks: Vec<Block> = bounds
            .chunks(per)
            .enumerate()
            .map(|(shard, parts)| Block {
                shard,
                base: shard * per,
                parts: parts.len(),
                lo: parts[0].0,
                hi: parts[parts.len() - 1].1,
            })
            .collect();
        let trace_parent = trace.map(|t| (t.parent, t.batch));
        let run_block = |b: Block| {
            self.fold_remote(
                b,
                frag,
                frag_frame,
                &rows[b.lo..b.hi],
                certain,
                trace_parent,
            )
        };
        let results: Vec<BlockFold> = match blocks.as_slice() {
            [only] => vec![run_block(*only)],
            _ => std::thread::scope(|scope| {
                let run_block = &run_block;
                let handles: Vec<_> = blocks
                    .iter()
                    .map(|&b| scope.spawn(move || run_block(b)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join().unwrap_or_else(|payload| {
                            Err(EngineError::Plan(format!(
                                "shard worker panicked: {}",
                                iolap_core::faults::panic_message(payload)
                            )))
                        })
                    })
                    .collect()
            }),
        };
        // Count what every shard served, even when a sibling block makes
        // the whole fold fall back.
        for (w, r) in self.stats().iter_mut().zip(&results) {
            if let Ok(Some(y)) = r {
                w.folds += 1;
                w.response_bytes += y.bytes;
            }
        }
        let mut out = Vec::with_capacity(bounds.len());
        let mut spans = Vec::new();
        for r in results {
            let Some(y) = r? else { return Ok(None) };
            out.extend(y.partials);
            spans.extend(y.spans);
        }
        if let Some(t) = trace {
            for (name, n, detail) in spans {
                t.tracer
                    .instant(summary_name(&name), t.batch, t.parent, n, detail);
            }
        }
        Ok(Some(out))
    }
}

impl ShardExec for TcpShardPool {
    fn shards(&self) -> usize {
        self.conns.len()
    }

    fn fold(
        &self,
        frag: &FoldFragment,
        rows: &[ORow],
        certain: bool,
    ) -> Result<Option<Vec<FoldPartial>>, EngineError> {
        self.fold_traced(frag, rows, certain, None)
    }

    fn fold_traced(
        &self,
        frag: &FoldFragment,
        rows: &[ORow],
        certain: bool,
        trace: Option<&ShardTraceCtx<'_>>,
    ) -> Result<Option<Vec<FoldPartial>>, EngineError> {
        let Some(frag_frame) = frag_json(frag) else {
            return Ok(None);
        };
        self.dispatch(frag, &frag_frame, rows, certain, trace)
    }

    fn bytes_shipped(&self) -> u64 {
        self.stats().iter().map(|w| w.response_bytes).sum()
    }

    fn worker_stats(&self) -> Vec<ShardWorkerStats> {
        self.stats().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolap_core::{IolapConfig, IolapDriver, PartialGroup, PARTITION_ROWS};
    use iolap_relation::Value;
    use std::sync::Arc;

    fn row(vals: Vec<Value>, mult: f64, weights: Option<Vec<f64>>) -> ORow {
        ORow {
            values: Arc::from(vals),
            mult,
            weights: weights.map(Arc::from),
        }
    }

    fn frag() -> FoldFragment {
        FoldFragment {
            agg_id: 1,
            group_cols: vec![0],
            kinds: vec![FragKind::Count, FragKind::Sum],
            srcs: vec![FragSrc::Col(1), FragSrc::Col(1)],
            trials: 3,
        }
    }

    fn sample_rows(n: usize) -> Vec<ORow> {
        (0..n)
            .map(|i| {
                row(
                    vec![Value::Int((i % 5) as i64), Value::Float(i as f64 * 0.25)],
                    1.0,
                    Some(vec![1.0, 0.0, 2.0]),
                )
            })
            .collect()
    }

    fn lineage_row() -> ORow {
        row(
            vec![
                Value::Int(0),
                Value::Ref(iolap_relation::AggRef {
                    agg: 0,
                    column: 0,
                    key: Arc::from(Vec::new()),
                }),
            ],
            1.0,
            None,
        )
    }

    /// A pool of `shards` connections to one loopback [`serve_shard`]
    /// worker.
    fn loopback_pool(shards: usize) -> TcpShardPool {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback shard worker");
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || serve_shard(listener));
        TcpShardPool::connect(&vec![addr; shards]).unwrap()
    }

    /// A one-connection loopback worker that answers the `i`-th request
    /// line with `reply(i, line)`.
    fn fake_worker(reply: impl Fn(usize, &str) -> String + Send + 'static) -> std::net::SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback shard worker");
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let Ok((stream, _)) = listener.accept() else {
                return;
            };
            let mut writer = stream.try_clone().unwrap();
            for (i, line) in BufReader::new(stream).lines().enumerate() {
                let Ok(line) = line else { break };
                let mut out = reply(i, &line);
                out.push('\n');
                if writer.write_all(out.as_bytes()).is_err() {
                    break;
                }
            }
        });
        addr
    }

    /// The pool's shipped-bytes total is exactly the sum of its per-shard
    /// response bytes.
    fn assert_bytes_are_worker_bytes(pool: &TcpShardPool) {
        let workers: u64 = pool.worker_stats().iter().map(|w| w.response_bytes).sum();
        assert!(pool.bytes_shipped() > 0);
        assert_eq!(pool.bytes_shipped(), workers);
    }

    /// Every topology must produce the same partials as the single-process
    /// grid fold, bit for bit.
    #[test]
    fn tcp_pool_partials_match_reference_for_all_shard_counts() {
        let rows = sample_rows(3000); // 3 partitions
        let reference = fold_fragment_partition(&frag(), &rows, true).unwrap();
        for shards in [1, 2, 4, 8] {
            let pool = loopback_pool(shards);
            assert_eq!(pool.shards(), shards);
            let got = pool.fold(&frag(), &rows, true).unwrap().unwrap();
            assert_eq!(got, reference, "shards={shards}");
            assert_bytes_are_worker_bytes(&pool);
        }
    }

    /// Loopback integration across a real socket: a pool's partials equal
    /// those of the same worker code run in-process, one thread per grid
    /// partition with no socket between, and both equal the single-process
    /// grid fold.
    #[test]
    fn tcp_pool_matches_thread_pool_over_loopback() {
        let rows = sample_rows(2500); // 3 partitions
        let reference = fold_fragment_partition(&frag(), &rows, false).unwrap();
        let frag_frame = frag_json(&frag()).unwrap();
        let threaded: Vec<FoldPartial> = std::thread::scope(|scope| {
            let handles: Vec<_> = partition_bounds(rows.len())
                .enumerate()
                .map(|(base, (lo, hi))| {
                    let request = fold_request_json(
                        base,
                        false,
                        None,
                        &frag_frame,
                        &rows_json(&rows[lo..hi]).unwrap(),
                    );
                    scope.spawn(move || handle_shard_request(&request))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| {
                    let resp = wire::parse(&h.join().unwrap()).unwrap();
                    let Some(JVal::Arr(items)) = resp.get("partials") else {
                        panic!("no partials in the worker's reply");
                    };
                    items
                        .iter()
                        .map(|p| partial_from_json(p).unwrap())
                        .collect::<Vec<_>>()
                })
                .collect()
        });
        assert_eq!(threaded, reference);

        let pool = loopback_pool(2);
        assert_eq!(pool.shards(), 2);
        pool.ping().unwrap();
        let got = pool.fold(&frag(), &rows, false).unwrap().unwrap();
        assert_eq!(got, threaded);
        assert_bytes_are_worker_bytes(&pool);
    }

    /// Traced folds carry the trace context to the worker, stitch its span
    /// summaries under the parent span in block order, account per-shard
    /// counters, and stay out of canonical exports (the `shard.` prefix is
    /// the strip marker). The loopback worker serves each shard connection
    /// on its own thread of this process.
    #[test]
    fn thread_pool_traced_fold_stitches_and_counts() {
        use iolap_core::trace::canonical_events;
        let rows = sample_rows(2500); // 3 partitions: blocks of 2 and 1
        let reference = fold_fragment_partition(&frag(), &rows, false).unwrap();
        let pool = loopback_pool(2);
        let tracer = Tracer::new();
        let parent = tracer.begin("agg.fold", 1, SpanId::NONE);
        let ctx = ShardTraceCtx {
            tracer: &tracer,
            parent,
            batch: 1,
        };
        let traced = pool
            .fold_traced(&frag(), &rows, false, Some(&ctx))
            .unwrap()
            .unwrap();
        assert_eq!(traced, reference, "tracing must not change the partials");
        let events = tracer.events();
        let stitched: Vec<_> = events
            .iter()
            .filter(|e| e.name.starts_with("shard.worker."))
            .collect();
        assert!(stitched.iter().all(|e| e.parent == parent), "{events:?}");
        let folds = stitched
            .iter()
            .filter(|e| e.name == "shard.worker.fold")
            .count();
        assert_eq!(folds, 2, "one summary per shard block");
        let bases: Vec<&str> = stitched
            .iter()
            .filter(|e| e.name == "shard.worker.partials")
            .map(|e| e.detail.as_str())
            .collect();
        assert_eq!(bases, ["base=0", "base=2"], "stitched in block order");
        assert!(canonical_events(&events)
            .iter()
            .all(|e| !e.name.starts_with("shard.")));

        let stats = pool.worker_stats();
        assert_eq!(stats.len(), 2);
        assert!(stats.iter().all(|w| w.folds == 1), "{stats:?}");
        assert!(stats.iter().all(|w| w.response_bytes > 0));
        assert_bytes_are_worker_bytes(&pool);
    }

    /// Lineage rows cannot cross the wire: fallback, not error, and
    /// nothing is shipped.
    #[test]
    fn tcp_pool_falls_back_on_lineage_rows() {
        let pool = loopback_pool(2);
        assert_eq!(pool.fold(&frag(), &[lineage_row()], true).unwrap(), None);
        assert_eq!(pool.bytes_shipped(), 0);
    }

    /// A fold whose read timed out leaves the worker's reply in flight. The
    /// next fold on that connection must fail, not take the late reply to
    /// the old request as its own answer.
    #[test]
    fn tcp_pool_drops_a_connection_after_a_failed_exchange() {
        // The worker holds its first reply until the coordinator has given
        // up on it, then sends it late.
        let (release, released) = std::sync::mpsc::channel::<()>();
        let addr = fake_worker(move |i, line| {
            if i == 0 {
                let _ = released.recv();
            }
            handle_shard_request(line)
        });
        let pool = TcpShardPool::connect(&[addr]).unwrap();
        pool.conn(0)
            .unwrap()
            .reader
            .get_ref()
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        assert!(pool.fold(&frag(), &sample_rows(10), true).is_err());
        release.send(()).unwrap();
        let err = pool
            .fold(&frag(), &sample_rows(20), true)
            .expect_err("a connection that timed out must not be reused");
        assert!(err.to_string().contains("shard connection lost"), "{err}");
        assert_eq!(pool.bytes_shipped(), 0);
    }

    /// A worker's reply must hold exactly one partial per partition of the
    /// block it was sent, indexed `base..base + n` in order.
    #[test]
    fn tcp_pool_rejects_replies_that_do_not_answer_the_block() {
        type Tamper = fn(&mut Vec<FoldPartial>);
        let honest: Tamper = |_| {};
        let extra_partial: Tamper = |ps| ps.push(ps[ps.len() - 1].clone());
        let shifted_base: Tamper = |ps| ps.iter_mut().for_each(|p| p.partition += 1);
        let rows = sample_rows(2500); // 3 partitions
        let reference = fold_fragment_partition(&frag(), &rows, true).unwrap();
        for (name, tamper) in [
            ("honest", honest),
            ("extra partial", extra_partial),
            ("shifted base", shifted_base),
        ] {
            let addr = fake_worker(move |_, line| {
                let resp = wire::parse(&handle_shard_request(line)).unwrap();
                let Some(JVal::Arr(items)) = resp.get("partials") else {
                    panic!("no partials in the worker's reply");
                };
                let mut partials: Vec<FoldPartial> = items
                    .iter()
                    .map(|p| partial_from_json(p).unwrap())
                    .collect();
                tamper(&mut partials);
                fold_response_json(&partials, None).unwrap()
            });
            let pool = TcpShardPool::connect(&[addr]).unwrap();
            let got = pool.fold(&frag(), &rows, true);
            if name == "honest" {
                assert_eq!(got.unwrap(), Some(reference.clone()));
            } else {
                assert!(got.is_err(), "{name}: {got:?}");
            }
        }
    }

    /// A worker that answers every `shard.fold` honestly, then tampers
    /// with the first group of each partial.
    fn tampering_worker(tamper: fn(&mut PartialGroup)) -> std::net::SocketAddr {
        fake_worker(move |_, line| {
            let resp = wire::parse(&handle_shard_request(line)).unwrap();
            let Some(JVal::Arr(items)) = resp.get("partials") else {
                panic!("no partials in the worker's reply");
            };
            let mut partials: Vec<FoldPartial> = items
                .iter()
                .map(|p| partial_from_json(p).unwrap())
                .collect();
            for p in &mut partials {
                if let Some(g) = p.groups.first_mut() {
                    tamper(g);
                }
            }
            fold_response_json(&partials, None).unwrap()
        })
    }

    /// A partial whose shape differs from the fragment sent — key length,
    /// call count, accumulator kind or trial-vector length — fails the
    /// fold, and a driver folding on such a worker publishes no batch.
    #[test]
    fn tcp_pool_rejects_partials_shaped_unlike_the_fragment() {
        type Tamper = fn(&mut PartialGroup);
        let tampers: [(&str, Tamper); 8] = [
            ("long key", |g| g.key.push(Value::Null)),
            ("empty key", |g| g.key.clear()),
            ("missing call", |g| {
                g.calls.pop();
            }),
            ("extra call", |g| g.calls.push(g.calls[0].clone())),
            ("wrong kind", |g| {
                g.calls[0].acc = AccState::Sum {
                    sum: 1.0,
                    any: true,
                }
            }),
            ("short a", |g| {
                g.calls[1].a.pop();
            }),
            ("long b", |g| g.calls[0].b.push(0.0)),
            ("empty trials", |g| {
                g.calls[1].a.clear();
                g.calls[1].b.clear();
            }),
        ];
        let rows = sample_rows(2500); // 3 partitions
        let catalog = iolap_workloads::conviva_catalog(600, 5);
        let registry = iolap_workloads::conviva_registry();
        for (name, tamper) in tampers {
            let pool = TcpShardPool::connect(&[tampering_worker(tamper)]).unwrap();
            let got = pool.fold(&frag(), &rows, true);
            let err = got.expect_err(name).to_string();
            assert!(
                err.contains("do not match the fragment sent"),
                "{name}: {err}"
            );

            let mut driver = IolapDriver::from_sql(
                "SELECT cdn, COUNT(*), SUM(play_time) FROM sessions GROUP BY cdn",
                &catalog,
                &registry,
                "sessions",
                IolapConfig::with_batches(2).trials(10).seed(5),
            )
            .unwrap();
            let pool = TcpShardPool::connect(&[tampering_worker(tamper)]).unwrap();
            driver.set_shard_exec(std::sync::Arc::new(pool));
            assert!(matches!(driver.step(), Some(Err(_))), "{name}");
            assert!(driver.registry().is_empty(), "{name}: a batch published");
        }
    }

    #[test]
    fn worker_dispatch_folds_and_reindexes() {
        let rows = sample_rows(4);
        let request = fold_request_json(
            7,
            false,
            None,
            &frag_json(&frag()).unwrap(),
            &rows_json(&rows).unwrap(),
        );
        let response = handle_shard_request(&request);
        let v = wire::parse(&response).unwrap();
        assert_eq!(v.get("ok").and_then(JVal::as_bool), Some(true));
        let Some(JVal::Arr(items)) = v.get("partials") else {
            panic!("no partials in {response}");
        };
        let partial = partial_from_json(&items[0]).unwrap();
        assert_eq!(partial.partition, 7, "base offset applied");
        assert_eq!(partial.groups.len(), 4);
    }

    #[test]
    fn worker_dispatch_rejects_malformed_frames() {
        let fold_at = |base: usize, frag: &FoldFragment, rows: &[ORow]| {
            fold_request_json(
                base,
                true,
                None,
                &frag_json(frag).unwrap(),
                &rows_json(rows).unwrap(),
            )
        };
        let fold = |frag: &FoldFragment, rows: &[ORow]| fold_at(0, frag, rows);
        // A group column, then an argument column, past the rows' end.
        let wide_group = FoldFragment {
            group_cols: vec![5],
            ..frag()
        };
        let wide_arg = FoldFragment {
            srcs: vec![FragSrc::Col(1), FragSrc::Col(9)],
            ..frag()
        };
        // Two weights where the fragment folds three trials.
        let short_weights = vec![row(
            vec![Value::Int(0), Value::Float(1.0)],
            1.0,
            Some(vec![1.0, 2.0]),
        )];
        // One unweighted row asking for 10^17 trials: two vectors of that
        // length per group would be ~1.6 EB.
        let unweighted = vec![row(vec![Value::Int(0), Value::Float(1.0)], 1.0, None)];
        let huge_trials = fold(&frag(), &unweighted).replace("\"trials\":3", "\"trials\":1e17");
        // Two partitions re-based past the end of the index space. The
        // literal 2^64 - 1 reads as the float 2^64, so the worker refuses
        // it as a base before adding; the test below checks the addition.
        let overflowing_base = fold_at(usize::MAX, &frag(), &sample_rows(PARTITION_ROWS + 1));
        for (line, kind) in [
            ("not json".to_string(), "bad_json"),
            ("[".repeat(100_000), "bad_json"),
            // Nesting exactly at the parser's bound parses: it is only not
            // a request.
            (
                format!("{}{}", "[".repeat(128), "]".repeat(128)),
                "bad_request",
            ),
            ("{\"op\":\"nope\"}".to_string(), "bad_request"),
            (
                "{\"op\":\"shard.ack\",\"partials\":1}".to_string(),
                "bad_request",
            ),
            ("{\"op\":\"shard.stats\"}".to_string(), "bad_request"),
            (
                "{\"op\":\"shard.fold\",\"rows\":[]}".to_string(),
                "bad_request",
            ),
            (fold(&wide_group, &sample_rows(3)), "bad_request"),
            (fold(&wide_arg, &sample_rows(3)), "bad_request"),
            (fold(&frag(), &short_weights), "bad_request"),
            (huge_trials, "bad_request"),
            (overflowing_base, "bad_request"),
        ] {
            let resp = handle_shard_request(&line);
            let v = wire::parse(&resp).unwrap();
            assert_eq!(v.get("ok").and_then(JVal::as_bool), Some(false), "{line}");
            assert_eq!(
                v.get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(JVal::as_str),
                Some(kind),
                "{line}"
            );
        }
    }

    #[test]
    fn fold_input_check_bounds_base_and_trials() {
        let rows = sample_rows(PARTITION_ROWS + 1); // 2 partitions
        assert_eq!(check_fold_input(&frag(), &rows, usize::MAX - 2), Ok(()));
        assert!(check_fold_input(&frag(), &rows, usize::MAX - 1).is_err());
        let at_limit = FoldFragment {
            trials: MAX_FOLD_TRIALS,
            ..frag()
        };
        let unweighted = vec![row(vec![Value::Int(0), Value::Float(1.0)], 1.0, None)];
        assert_eq!(check_fold_input(&at_limit, &unweighted, 0), Ok(()));
        let past_limit = FoldFragment {
            trials: MAX_FOLD_TRIALS + 1,
            ..frag()
        };
        assert!(check_fold_input(&past_limit, &unweighted, 0).is_err());
    }

    #[test]
    fn tcp_pool_needs_a_worker() {
        let err = TcpShardPool::connect::<std::net::SocketAddr>(&[])
            .err()
            .expect("an empty pool must be refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }
}
