//! Causal trace layer: a structured event journal and span tree recording
//! `query → batch → operator → (range check | recovery replay | checkpoint
//! | fault injection)` causality, with a bounded ring-buffer "flight
//! recorder" mode that survives operator panics and is dumped when the
//! driver surfaces an `EngineError`.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when off.** The tracer is carried as
//!    `Option<&Tracer>`/`Option<Arc<Tracer>>` everywhere (the same gating
//!    discipline the fault injector uses): with tracing disabled the hot
//!    fold/probe paths execute one pointer check per *operator call*, not
//!    per row, and no trace code is reachable.
//! 2. **Panic survival.** Events are written straight into a shared,
//!    mutex-guarded journal owned by the driver — not into per-batch
//!    state that `catch_unwind` would discard. A poisoned lock is
//!    recovered with `into_inner`, so the recorder keeps accepting events
//!    *after* an injected worker panic, which is exactly when it matters.
//! 3. **Seeded determinism.** Span/event identifiers are sequential
//!    counters; nothing in an event except the timestamp depends on the
//!    clock, and exporters offer a normalized form (timestamps replaced
//!    by sequence numbers) that is byte-identical across runs of the same
//!    seed. The clock itself is [`crate::metrics::Span`] — the repo's one
//!    sanctioned time source (lint L003).
//!
//! Two export formats are provided: JSONL (one event per line, grep- and
//! jq-friendly) and Chrome `trace_event` JSON (open `chrome://tracing` or
//! Perfetto and load the file; batches map to tracks, spans nest).

use crate::json::JVal;
use crate::metrics::Span;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::Mutex;

/// Identifier of a node in the span tree. `SpanId::NONE` is the implicit
/// root (the query itself has a real span; `NONE` is its parent).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u32);

impl SpanId {
    /// The null span (parent of the query root).
    pub const NONE: SpanId = SpanId(0);
}

/// Sentinel batch index for events outside any batch (query setup).
pub const NO_BATCH: usize = usize::MAX;

/// Event phase, mirroring the Chrome `trace_event` `ph` field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    Begin,
    /// A span closed.
    End,
    /// A point-in-time event (Chrome phase `i`). Named `Mark` because the
    /// `Instant` token is reserved for the clock authority (srclint L003).
    Mark,
}

impl EventKind {
    /// One-letter code (`B`/`E`/`i`), shared by both exporters.
    pub fn code(&self) -> &'static str {
        match self {
            EventKind::Begin => "B",
            EventKind::End => "E",
            EventKind::Mark => "i",
        }
    }
}

/// One journal entry. `seq` is the global order; `span`/`parent` encode
/// the causal tree; `n` is a payload count (rows, bytes, depth — the
/// event name says which); `detail` is free-form but seeded-deterministic.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Global sequence number (monotonic even when the ring drops events).
    pub seq: u64,
    /// Nanoseconds since the tracer's epoch.
    pub ts_ns: u64,
    /// Phase.
    pub kind: EventKind,
    /// Span this event belongs to (the opened/closed span for `B`/`E`).
    pub span: SpanId,
    /// Parent span in the causal tree.
    pub parent: SpanId,
    /// Mini-batch index, or [`NO_BATCH`].
    pub batch: usize,
    /// Event name (static: operator kind or subsystem action).
    pub name: &'static str,
    /// Payload count (meaning depends on `name`; 0 when unused).
    pub n: u64,
    /// Deterministic free-form detail (fault kind, agg ref, digest…).
    pub detail: String,
}

/// Journal capacity policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceMode {
    /// No tracer is created; all hooks are `None`.
    #[default]
    Off,
    /// Unbounded journal: every event is retained (experiments, exports).
    Journal,
    /// Flight recorder: ring buffer of the most recent `capacity` events,
    /// kept cheap enough to leave on in fault storms; dumped on hard
    /// engine errors.
    Flight {
        /// Maximum retained events; older events are dropped (counted).
        capacity: usize,
    },
}

impl TraceMode {
    /// Default flight-recorder ring size.
    pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;
}

struct Inner {
    events: VecDeque<TraceEvent>,
    /// `usize::MAX` means unbounded (journal mode).
    capacity: usize,
    next_seq: u64,
    next_span: u32,
    dropped: u64,
}

/// The shared trace journal. The driver owns one `Arc<Tracer>` and hands
/// clones to the registry, the sink, and the fault injector; operators see
/// it as `Option<&Tracer>` through `BatchCtx`.
pub struct Tracer {
    epoch: Span,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("Tracer")
            .field("events", &inner.events.len())
            .field("dropped", &inner.dropped)
            .finish()
    }
}

impl Tracer {
    /// Create a tracer for `mode`; `None` for [`TraceMode::Off`].
    pub fn from_mode(mode: TraceMode) -> Option<Tracer> {
        match mode {
            TraceMode::Off => None,
            TraceMode::Journal => Some(Tracer::with_capacity(usize::MAX)),
            TraceMode::Flight { capacity } => Some(Tracer::with_capacity(capacity.max(1))),
        }
    }

    /// Unbounded journal tracer.
    pub fn new() -> Tracer {
        Tracer::with_capacity(usize::MAX)
    }

    fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            epoch: Span::start(),
            inner: Mutex::new(Inner {
                events: VecDeque::new(),
                capacity,
                next_seq: 0,
                next_span: 1, // 0 is SpanId::NONE
                dropped: 0,
            }),
        }
    }

    /// Nanoseconds since this tracer's epoch (saturating).
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Survive lock poisoning: a panicking operator (fault injection)
        // must not silence the flight recorder.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn push(&self, inner: &mut Inner, ev: TraceEvent) {
        if inner.events.len() >= inner.capacity {
            inner.events.pop_front();
            inner.dropped = inner.dropped.saturating_add(1);
        }
        inner.events.push_back(ev);
    }

    /// Open a span under `parent`; returns its id for [`Tracer::end`].
    pub fn begin(&self, name: &'static str, batch: usize, parent: SpanId) -> SpanId {
        let ts_ns = self.now_ns();
        let mut inner = self.lock();
        let span = SpanId(inner.next_span);
        inner.next_span = inner.next_span.wrapping_add(1).max(1);
        let seq = inner.next_seq;
        inner.next_seq += 1;
        self.push(
            &mut inner,
            TraceEvent {
                seq,
                ts_ns,
                kind: EventKind::Begin,
                span,
                parent,
                batch,
                name,
                n: 0,
                detail: String::new(),
            },
        );
        span
    }

    /// Close `span` with payload count `n`.
    pub fn end(&self, name: &'static str, batch: usize, span: SpanId, parent: SpanId, n: u64) {
        let ts_ns = self.now_ns();
        let mut inner = self.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        self.push(
            &mut inner,
            TraceEvent {
                seq,
                ts_ns,
                kind: EventKind::End,
                span,
                parent,
                batch,
                name,
                n,
                detail: String::new(),
            },
        );
    }

    /// Record a point event under `parent`.
    pub fn instant(
        &self,
        name: &'static str,
        batch: usize,
        parent: SpanId,
        n: u64,
        detail: impl Into<String>,
    ) {
        let ts_ns = self.now_ns();
        let mut inner = self.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let ev = TraceEvent {
            seq,
            ts_ns,
            kind: EventKind::Mark,
            span: SpanId::NONE,
            parent,
            batch,
            name,
            n,
            detail: detail.into(),
        };
        self.push(&mut inner, ev);
    }

    /// Snapshot of the retained events, in sequence order.
    pub fn events(&self) -> Vec<TraceEvent> {
        let inner = self.lock();
        inner.events.iter().cloned().collect()
    }

    /// Snapshot of retained events with `seq >= from_seq` (the driver's
    /// per-batch slice: it remembers [`Tracer::recorded`] at batch start
    /// and cuts here, so journal mode stays O(batch) instead of O(run)).
    pub fn events_since(&self, from_seq: u64) -> Vec<TraceEvent> {
        let inner = self.lock();
        inner
            .events
            .iter()
            .filter(|e| e.seq >= from_seq)
            .cloned()
            .collect()
    }

    /// Events dropped by the flight-recorder ring so far.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Total events recorded (including dropped ones).
    pub fn recorded(&self) -> u64 {
        self.lock().next_seq
    }

    /// Render the retained journal as a deterministic, human-readable
    /// flight-recorder dump: one line per event with sequence, batch,
    /// phase, name, payload, and detail. Timestamps are deliberately
    /// omitted so a dump can be diffed across runs of the same seed.
    pub fn flight_dump(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== flight recorder: {} events retained, {} dropped ===",
            inner.events.len(),
            inner.dropped
        );
        for ev in inner.events.iter() {
            let batch = if ev.batch == NO_BATCH {
                "-".to_string()
            } else {
                ev.batch.to_string()
            };
            let _ = write!(
                out,
                "#{:06} b{:<3} {} {:<24} span={} parent={} n={}",
                ev.seq,
                batch,
                ev.kind.code(),
                ev.name,
                ev.span.0,
                ev.parent.0,
                ev.n
            );
            if ev.detail.is_empty() {
                out.push('\n');
            } else {
                let _ = writeln!(out, " :: {}", ev.detail);
            }
        }
        out
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Exclusive self-time per span name: each closed span's duration minus
/// the durations of its closed children, aggregated by name into a
/// deterministic (ordered) map. Spans the ring buffer truncated (missing
/// begin or end) are skipped. This is the rollup of record: nested spans
/// do not double-count, as a plain sum of the `*_ns` metrics would.
pub fn self_time_by_name(events: &[TraceEvent]) -> BTreeMap<&'static str, u64> {
    // span id -> (name, begin_ts, end_ts, parent)
    type OpenSpan = (&'static str, Option<u64>, Option<u64>, SpanId);
    let mut spans: BTreeMap<SpanId, OpenSpan> = BTreeMap::new();
    for ev in events {
        match ev.kind {
            EventKind::Begin => {
                spans.insert(ev.span, (ev.name, Some(ev.ts_ns), None, ev.parent));
            }
            EventKind::End => {
                if let Some(e) = spans.get_mut(&ev.span) {
                    e.2 = Some(ev.ts_ns);
                }
            }
            EventKind::Mark => {}
        }
    }
    let mut child_time: BTreeMap<SpanId, u64> = BTreeMap::new();
    let mut durations: Vec<(SpanId, &'static str, u64, SpanId)> = Vec::new();
    for (id, (name, begin, end, parent)) in spans.iter() {
        if let (Some(b), Some(e)) = (begin, end) {
            let dur = e.saturating_sub(*b);
            durations.push((*id, name, dur, *parent));
            let slot = child_time.entry(*parent).or_insert(0);
            *slot = slot.saturating_add(dur);
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (id, name, dur, _parent) in durations {
        let children = child_time.get(&id).copied().unwrap_or(0);
        let exclusive = dur.saturating_sub(children);
        let slot = out.entry(name).or_insert(0);
        *slot = slot.saturating_add(exclusive);
    }
    out
}

/// Canonical event stream for cross-topology comparison. `shard.*`-named
/// events (dispatch/merge instants, stitched worker span summaries) are
/// emitted only when fold partitions are offloaded, so they vary with the
/// shard count while everything else does not — the merge tree is pinned
/// to the `PARTITION_ROWS` grid regardless of where partitions execute.
/// Dropping them and renumbering `seq` contiguously yields a stream whose
/// normalized export is byte-identical across shard counts N∈{0,1,2,4}:
/// the trace analogue of `strip_shard_metrics`. Span ids are untouched
/// because every `shard.*` event is an instant and instants never
/// allocate span ids, so span numbering is already topology-independent.
pub fn canonical_events(events: &[TraceEvent]) -> Vec<TraceEvent> {
    let mut out: Vec<TraceEvent> = events
        .iter()
        .filter(|e| !e.name.starts_with("shard."))
        .cloned()
        .collect();
    for (i, ev) in out.iter_mut().enumerate() {
        ev.seq = i as u64;
    }
    out
}

fn event_ts(ev: &TraceEvent, normalize: bool) -> u64 {
    // Normalized exports replace wall-clock with the sequence number: the
    // only nondeterministic field disappears and the output is
    // byte-identical across runs of the same seed.
    if normalize {
        ev.seq
    } else {
        ev.ts_ns
    }
}

fn span_json(id: SpanId) -> JVal {
    JVal::Int(i64::from(id.0))
}

/// Export events as JSONL: one JSON object per line, stable key order.
/// With `normalize`, timestamps are replaced by sequence numbers.
pub fn export_jsonl(events: &[TraceEvent], normalize: bool) -> String {
    let mut out = String::new();
    for ev in events {
        let line = JVal::obj(vec![
            ("seq", ev.seq.into()),
            ("ts_ns", event_ts(ev, normalize).into()),
            ("ph", ev.kind.code().into()),
            ("span", span_json(ev.span)),
            ("parent", span_json(ev.parent)),
            ("batch", (ev.batch != NO_BATCH).then_some(ev.batch).into()),
            ("name", ev.name.into()),
            ("n", ev.n.into()),
            ("detail", ev.detail.as_str().into()),
        ]);
        out.push_str(&line.render());
        out.push('\n');
    }
    out
}

/// Export events as Chrome `trace_event` JSON (the "JSON Array Format"
/// wrapped in `{"traceEvents": [...]}`, one event per line), loadable in
/// `chrome://tracing` and Perfetto. Batches become tracks (`tid`), spans
/// become `B`/`E` pairs, instants become `i` events. Timestamps are
/// microseconds; with `normalize`, the sequence number stands in for the
/// timestamp.
pub fn export_chrome(events: &[TraceEvent], normalize: bool) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let tid = if ev.batch == NO_BATCH {
            0
        } else {
            ev.batch + 1
        };
        let mut members = vec![
            ("name", ev.name.into()),
            ("ph", ev.kind.code().into()),
            ("ts", (event_ts(ev, normalize) as f64 / 1e3).into()),
            ("pid", JVal::Int(0)),
            ("tid", tid.into()),
        ];
        if ev.kind == EventKind::Mark {
            members.push(("s", "t".into()));
        }
        members.push((
            "args",
            JVal::obj(vec![
                ("seq", ev.seq.into()),
                ("span", span_json(ev.span)),
                ("parent", span_json(ev.parent)),
                ("n", ev.n.into()),
                ("detail", ev.detail.as_str().into()),
            ]),
        ));
        out.push('\n');
        out.push_str(&JVal::obj(members).render());
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(tracer: &Tracer) {
        let q = tracer.begin("query", NO_BATCH, SpanId::NONE);
        let b = tracer.begin("batch", 0, q);
        let op = tracer.begin("Aggregate", 0, b);
        tracer.instant("range.check", 0, op, 3, "agg=0 col=0");
        tracer.end("Aggregate", 0, op, b, 42);
        tracer.end("batch", 0, b, q, 0);
        tracer.end("query", NO_BATCH, q, SpanId::NONE, 0);
    }

    #[test]
    fn spans_nest_and_sequence() {
        let t = Tracer::new();
        mk(&t);
        let evs = t.events();
        assert_eq!(evs.len(), 7);
        assert_eq!(evs[0].name, "query");
        assert_eq!(evs[0].kind, EventKind::Begin);
        assert_eq!(evs[2].parent, evs[1].span);
        assert!(evs.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(t.recorded(), 7);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn flight_ring_drops_oldest_keeps_seq() {
        let t = Tracer::from_mode(TraceMode::Flight { capacity: 3 }).unwrap();
        mk(&t);
        let evs = t.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(t.dropped(), 4);
        assert_eq!(t.recorded(), 7);
        // Retained events are the most recent ones, seq intact.
        assert_eq!(evs[0].seq, 4);
        assert_eq!(evs[2].seq, 6);
        let dump = t.flight_dump();
        assert!(dump.contains("3 events retained, 4 dropped"));
        assert!(dump.contains("query"));
    }

    #[test]
    fn off_mode_yields_no_tracer() {
        assert!(Tracer::from_mode(TraceMode::Off).is_none());
        assert!(Tracer::from_mode(TraceMode::Journal).is_some());
    }

    #[test]
    fn self_time_subtracts_children() {
        // Hand-built events with controlled timestamps.
        let evs = vec![
            TraceEvent {
                seq: 0,
                ts_ns: 0,
                kind: EventKind::Begin,
                span: SpanId(1),
                parent: SpanId::NONE,
                batch: 0,
                name: "batch",
                n: 0,
                detail: String::new(),
            },
            TraceEvent {
                seq: 1,
                ts_ns: 10,
                kind: EventKind::Begin,
                span: SpanId(2),
                parent: SpanId(1),
                batch: 0,
                name: "Aggregate",
                n: 0,
                detail: String::new(),
            },
            TraceEvent {
                seq: 2,
                ts_ns: 70,
                kind: EventKind::End,
                span: SpanId(2),
                parent: SpanId(1),
                batch: 0,
                name: "Aggregate",
                n: 5,
                detail: String::new(),
            },
            TraceEvent {
                seq: 3,
                ts_ns: 100,
                kind: EventKind::End,
                span: SpanId(1),
                parent: SpanId::NONE,
                batch: 0,
                name: "batch",
                n: 0,
                detail: String::new(),
            },
        ];
        let st = self_time_by_name(&evs);
        assert_eq!(st["Aggregate"], 60);
        assert_eq!(st["batch"], 40); // 100 - 60 exclusive
    }

    #[test]
    fn self_time_skips_truncated_spans() {
        let evs = vec![TraceEvent {
            seq: 9,
            ts_ns: 5,
            kind: EventKind::End,
            span: SpanId(7),
            parent: SpanId(1),
            batch: 2,
            name: "orphan",
            n: 0,
            detail: String::new(),
        }];
        assert!(self_time_by_name(&evs).is_empty());
    }

    #[test]
    fn exports_are_deterministic_when_normalized() {
        let t1 = Tracer::new();
        mk(&t1);
        let t2 = Tracer::new();
        mk(&t2);
        assert_eq!(
            export_jsonl(&t1.events(), true),
            export_jsonl(&t2.events(), true)
        );
        assert_eq!(
            export_chrome(&t1.events(), true),
            export_chrome(&t2.events(), true)
        );
        let jsonl = export_jsonl(&t1.events(), true);
        assert!(jsonl.contains("\"ph\":\"B\""));
        assert!(jsonl.contains("\"batch\":null"));
        let chrome = export_chrome(&t1.events(), true);
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"s\":\"t\""));
        assert!(chrome.trim_end().ends_with("]}"));
    }

    #[test]
    fn canonical_events_strip_shard_topology() {
        // Two runs of the same plan, one offloaded (extra shard.* instants
        // interleaved), one local. Canonical streams must export
        // byte-identically; span ids must survive untouched.
        let local = Tracer::new();
        mk(&local);
        let sharded = Tracer::new();
        {
            let q = sharded.begin("query", NO_BATCH, SpanId::NONE);
            let b = sharded.begin("batch", 0, q);
            let op = sharded.begin("Aggregate", 0, b);
            sharded.instant("shard.dispatch", 0, op, 2, "shards=2");
            sharded.instant("range.check", 0, op, 3, "agg=0 col=0");
            sharded.instant("shard.worker.fold", 0, op, 1024, "shard=1");
            sharded.instant("shard.merge", 0, op, 2, "");
            sharded.end("Aggregate", 0, op, b, 42);
            sharded.end("batch", 0, b, q, 0);
            sharded.end("query", NO_BATCH, q, SpanId::NONE, 0);
        }
        let a = canonical_events(&local.events());
        let b = canonical_events(&sharded.events());
        assert_eq!(export_jsonl(&a, true), export_jsonl(&b, true));
        assert!(a.iter().all(|e| !e.name.starts_with("shard.")));
        // Seq renumbered contiguously from zero.
        assert!(b.iter().enumerate().all(|(i, e)| e.seq == i as u64));
    }

    #[test]
    fn poisoned_lock_recovers() {
        let t = std::sync::Arc::new(Tracer::new());
        let t2 = t.clone();
        // Poison the mutex by panicking while holding it.
        let _ = std::thread::spawn(move || {
            let _guard = t2.inner.lock().unwrap();
            panic!("poison");
        })
        .join();
        t.instant("after.panic", 0, SpanId::NONE, 0, "");
        assert_eq!(t.events().len(), 1);
    }
}
