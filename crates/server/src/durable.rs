//! Durable session state: manifest + per-session append logs.
//!
//! The scheduler spills every admitted session into `iolap-store` segments
//! so a restarted server can rebuild its live sessions and re-deliver
//! byte-identical report streams (wall-clock fields excluded — see
//! `tests/restart.rs`). This module is the only one that knows the log
//! format; the scheduler hands it sessions, drivers and reports:
//!
//! * `manifest.seg` — one `'S'` record per admitted session carrying the
//!   verbatim submit request (the *origin*), and one `'D'` record when the
//!   session finishes. Live sessions are exactly the `'S'` records without
//!   a matching `'D'`.
//! * `session-{id}.seg` — the session's event log, in application order:
//!   `'R'` (rendered batch-report line), `'C'` (checkpoint batch/digest/
//!   bytes — the digest is the driver's structural fingerprint, reused
//!   here as the on-disk integrity check), and `'A'` (streaming append:
//!   the canonical rows JSON).
//!
//! [`DurableStore::log_batch`] is where the durable fault kinds land
//! (`torn_write`, `stale_manifest`, `truncated_segment`), exactly where a
//! real crash or filesystem lie would. The store counts its own records
//! and write errors ([`DurableStore::write_counts`]), which the telemetry
//! plane exposes as `iolap_durable_records_total` and
//! `iolap_durable_write_errors_total`; a failed write degrades a session's
//! recoverability but never fails the session.
//!
//! Recovery never trusts the log blindly: reports are *re-derived* by
//! replaying batches through the driver (`IolapDriver::resume_replay` over
//! [`DurableStore::replay_events`]), and each logged `'C'` digest is
//! checked against the freshly re-derived checkpoint fingerprint — a
//! mismatch (the `stale_manifest` fault) is counted, never silently
//! believed. Torn and truncated logs are the expected crash residue: the
//! store's scanner hands recovery the longest valid prefix and replay
//! simply restarts the suffix.
//!
//! Lock order: the scheduler's state lock may be held when taking the
//! store lock (`finish` writes `'D'` under it, the exposition reads the
//! write counts under it); the store lock never acquires the state lock.
//! srclint L009 checks the scheduler side.

use crate::wire::{parse, JVal};
use iolap_core::{BatchReport, IolapDriver, ReplayEvent};
use iolap_relation::{DataType, Field, Relation, Schema, Value};
use iolap_store::{ensure_dir, scan_segment, truncate_tail, SegmentWriter, SEGMENT_HEADER_LEN};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// Path of the manifest segment inside a durable directory.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest.seg")
}

/// Path of one session's event-log segment.
pub fn session_log_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("session-{id}.seg"))
}

/// Open segment writers for the manifest and every live session log, and
/// the outcome counts of every write through them.
struct Inner {
    manifest: SegmentWriter,
    sessions: BTreeMap<u64, SegmentWriter>,
    records: u64,
    write_errors: u64,
}

/// The server's handle on its durable directory: one manifest writer plus
/// lazily-opened per-session log writers, all behind one mutex (durable
/// writes are rare relative to compute; contention is not a concern).
pub struct DurableStore {
    dir: PathBuf,
    fsync: bool,
    inner: Mutex<Inner>,
}

impl DurableStore {
    /// Open (or create) the durable directory and its manifest. An existing
    /// manifest is resumed — its torn tail, if any, chopped to the valid
    /// prefix exactly as recovery will read it.
    pub fn open(dir: &Path, fsync: bool) -> io::Result<DurableStore> {
        ensure_dir(dir)?;
        let path = manifest_path(dir);
        let manifest = if path.exists() {
            SegmentWriter::resume(&path, fsync)?.0
        } else {
            SegmentWriter::create(&path, fsync)?
        };
        Ok(DurableStore {
            dir: dir.to_path_buf(),
            fsync,
            inner: Mutex::new(Inner {
                manifest,
                sessions: BTreeMap::new(),
                records: 0,
                write_errors: 0,
            }),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Run one store operation under the lock and count its outcome: a
    /// record on success, a write error on failure (saturating).
    fn counted<T>(&self, op: impl FnOnce(&mut Inner) -> io::Result<T>) -> io::Result<T> {
        let mut g = self.lock();
        let out = op(&mut g);
        match &out {
            Ok(_) => g.records = g.records.saturating_add(1),
            Err(_) => g.write_errors = g.write_errors.saturating_add(1),
        }
        out
    }

    /// `(records written, writes failed)` since the store opened.
    pub fn write_counts(&self) -> (u64, u64) {
        let g = self.lock();
        (g.records, g.write_errors)
    }

    fn writer_for<'a>(&self, g: &'a mut Inner, id: u64) -> io::Result<&'a mut SegmentWriter> {
        match g.sessions.entry(id) {
            std::collections::btree_map::Entry::Occupied(e) => Ok(e.into_mut()),
            std::collections::btree_map::Entry::Vacant(e) => {
                let path = session_log_path(&self.dir, id);
                let w = if path.exists() {
                    SegmentWriter::resume(&path, self.fsync)?.0
                } else {
                    SegmentWriter::create(&path, self.fsync)?
                };
                Ok(e.insert(w))
            }
        }
    }

    /// Record an admission: `'S'` + id + the verbatim submit request. Also
    /// creates the (empty) session log so a crash before the first batch
    /// still leaves a resumable session behind.
    pub fn log_submit(&self, id: u64, origin: &str) -> io::Result<()> {
        self.counted(|g| {
            g.manifest
                .append(&manifest_record(b'S', id, origin.as_bytes()))?;
            let w = SegmentWriter::create(&session_log_path(&self.dir, id), self.fsync)?;
            g.sessions.insert(id, w);
            Ok(())
        })
    }

    /// Record a session end: `'D'` + id + the end label. Drops the session
    /// log writer; the log file itself is kept for post-mortem reads.
    pub fn log_finish(&self, id: u64, end_label: &str) -> io::Result<()> {
        self.counted(|g| {
            g.manifest
                .append(&manifest_record(b'D', id, end_label.as_bytes()))?;
            g.sessions.remove(&id);
            Ok(())
        })
    }

    /// Spill one delivered batch: the rendered report line (`'R'`) and the
    /// checkpoint fingerprint (`'C'`), plus whatever durable damage the
    /// driver's fault plan injects at this batch — a torn `'R'` frame
    /// (`torn_write`), a lying digest (`stale_manifest`), a chopped log
    /// tail (`truncated_segment`). Failures are only counted: the session
    /// keeps running with degraded recoverability.
    pub fn log_batch(&self, id: u64, driver: &IolapDriver, report: &BatchReport) {
        let faults = driver.fault_injector();
        let torn = faults.and_then(|f| f.inject_torn_write(report.batch));
        let stale = faults.and_then(|f| f.inject_stale_manifest(report.batch));
        let chop = faults.and_then(|f| f.inject_truncated_segment(report.batch));
        let _ = self.log_report(id, &crate::tcp::report_json(report), torn);
        if let Some((digest, bytes)) = driver.checkpoint_for(report.batch) {
            let digest = digest ^ stale.unwrap_or(0);
            let _ = self.log_checkpoint(id, report.batch, digest, bytes as u64);
        }
        if let Some(fraction) = chop {
            let _ = self.damage_truncate(id, fraction);
        }
    }

    /// Spill one delivered batch report. `torn` is the `torn_write` fault
    /// hook: `Some(fraction)` writes only that leading fraction of the
    /// frame, after which the log's tail (this record and everything a
    /// still-running server appends after it) is lost to recovery.
    pub fn log_report(&self, id: u64, line: &str, torn: Option<f64>) -> io::Result<()> {
        self.counted(|g| {
            let w = self.writer_for(g, id)?;
            let mut payload = Vec::with_capacity(1 + line.len());
            payload.push(b'R');
            payload.extend_from_slice(line.as_bytes());
            match torn {
                Some(fraction) => w.append_partial(&payload, fraction),
                None => w.append(&payload),
            }
        })
    }

    /// Spill one checkpoint fingerprint (`'C'` + batch + digest + bytes).
    /// The `stale_manifest` fault XORs the digest *before* this call — the
    /// store records what it is given; recovery detects the lie.
    pub fn log_checkpoint(&self, id: u64, batch: usize, digest: u64, bytes: u64) -> io::Result<()> {
        self.counted(|g| {
            let mut payload = Vec::with_capacity(25);
            payload.push(b'C');
            payload.extend_from_slice(&(batch as u64).to_le_bytes());
            payload.extend_from_slice(&digest.to_le_bytes());
            payload.extend_from_slice(&bytes.to_le_bytes());
            self.writer_for(g, id)?.append(&payload)
        })
    }

    /// Spill one applied streaming append (`'A'` + canonical rows JSON),
    /// written at apply time so replay order equals application order.
    pub fn log_append(&self, id: u64, rows_json: &str) -> io::Result<()> {
        self.counted(|g| {
            let mut payload = Vec::with_capacity(1 + rows_json.len());
            payload.push(b'A');
            payload.extend_from_slice(rows_json.as_bytes());
            self.writer_for(g, id)?.append(&payload)
        })
    }

    /// The `truncated_segment` fault: chop `fraction` of the log body off
    /// the session log's tail, as when a filesystem loses flushed bytes.
    /// The live writer keeps its old offset, so later appends land past a
    /// zero-filled hole and are equally unreachable to the scanner. Counted
    /// like a write.
    pub fn damage_truncate(&self, id: u64, fraction: f64) -> io::Result<u64> {
        self.counted(|g| {
            let len = self.writer_for(g, id)?.len();
            let body = len.saturating_sub(SEGMENT_HEADER_LEN);
            if body == 0 {
                return Ok(len);
            }
            let chop = ((body as f64) * fraction.clamp(0.0, 1.0)) as u64;
            let chop = chop.clamp(1, body);
            truncate_tail(&session_log_path(&self.dir, id), chop)
        })
    }

    /// The manifest's sessions in admission order (see [`read_manifest`]).
    pub fn manifest(&self) -> io::Result<Vec<ManifestEntry>> {
        read_manifest(&self.dir)
    }

    /// The end label the manifest recorded for session `id`, when its last
    /// admission has a `'D'` record; `None` for a live or unknown id (or an
    /// unreadable manifest).
    pub fn finished(&self, id: u64) -> Option<String> {
        let entries = self.manifest().ok()?;
        entries.into_iter().rev().find(|e| e.id == id)?.end
    }

    /// Session `id`'s logged history as replay events, in log order: each
    /// `'R'` re-runs the next batch, each `'C'` checks its digest, each
    /// `'A'` re-applies its rows decoded against `schema`. An append that
    /// no longer decodes (damage that survived its CRC, or a schema
    /// change) fails the whole session rather than let it resume
    /// divergent. The error says why, for [`crate::RecoveryReport`].
    pub fn replay_events(&self, id: u64, schema: &Schema) -> Result<Vec<ReplayEvent>, String> {
        let records =
            read_session_log(&self.dir, id).map_err(|e| format!("session log unreadable: {e}"))?;
        let mut next_batch = 0usize;
        records
            .into_iter()
            .map(|record| match record {
                LogRecord::Report(_) => {
                    next_batch += 1;
                    Ok(ReplayEvent::Batch(next_batch - 1))
                }
                LogRecord::Checkpoint { batch, digest, .. } => {
                    Ok(ReplayEvent::Checkpoint { batch, digest })
                }
                LogRecord::Append(rows_json) => decode_append(&rows_json, schema)
                    .map(ReplayEvent::Append)
                    .map_err(|e| format!("append record undecodable: {e}")),
            })
            .collect()
    }
}

impl std::fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableStore")
            .field("dir", &self.dir)
            .field("fsync", &self.fsync)
            .finish()
    }
}

fn manifest_record(tag: u8, id: u64, body: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(9 + body.len());
    payload.push(tag);
    payload.extend_from_slice(&id.to_le_bytes());
    payload.extend_from_slice(body);
    payload
}

fn u64_at(frame: &[u8], off: usize) -> Option<u64> {
    let end = off.checked_add(8)?;
    let bytes: [u8; 8] = frame.get(off..end)?.try_into().ok()?;
    Some(u64::from_le_bytes(bytes))
}

fn body_string(frame: &[u8], off: usize) -> String {
    String::from_utf8_lossy(frame.get(off..).unwrap_or_default()).into_owned()
}

/// One session as the manifest remembers it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Server-assigned session id.
    pub id: u64,
    /// Verbatim submit request recorded at admission.
    pub origin: String,
    /// End label once a `'D'` record exists; `None` means the session was
    /// live when the process stopped and is a recovery candidate.
    pub end: Option<String>,
}

/// Read the manifest's valid prefix. A missing manifest is an empty fleet,
/// not an error; a foreign or headerless file *is* an error.
pub fn read_manifest(dir: &Path) -> io::Result<Vec<ManifestEntry>> {
    let path = manifest_path(dir);
    if !path.exists() {
        return Ok(Vec::new());
    }
    let scan = scan_segment(&path)?;
    let mut entries: Vec<ManifestEntry> = Vec::new();
    for frame in &scan.frames {
        let Some((&tag, _)) = frame.split_first() else {
            continue;
        };
        let Some(id) = u64_at(frame, 1) else {
            continue;
        };
        match tag {
            b'S' => entries.push(ManifestEntry {
                id,
                origin: body_string(frame, 9),
                end: None,
            }),
            b'D' => {
                if let Some(e) = entries.iter_mut().rev().find(|e| e.id == id) {
                    e.end = Some(body_string(frame, 9));
                }
            }
            // Unknown tags are skipped, not fatal: a newer writer may add
            // record kinds an older reader can ignore.
            _ => {}
        }
    }
    Ok(entries)
}

/// One decoded record of a session's event log.
#[derive(Clone, Debug, PartialEq)]
pub enum LogRecord {
    /// A rendered batch-report line, in delivery order.
    Report(String),
    /// A checkpoint fingerprint spilled at a batch boundary.
    Checkpoint {
        /// Mini-batch index the checkpoint covers.
        batch: usize,
        /// Structural digest of the checkpointed operator tree.
        digest: u64,
        /// Accounted checkpoint size in bytes.
        bytes: u64,
    },
    /// A streaming append's canonical rows JSON, at its application point.
    Append(String),
}

/// Read the valid prefix of one session's event log. A missing log means
/// the session never ran a batch — an empty event list, not an error.
pub fn read_session_log(dir: &Path, id: u64) -> io::Result<Vec<LogRecord>> {
    let path = session_log_path(dir, id);
    if !path.exists() {
        return Ok(Vec::new());
    }
    let scan = scan_segment(&path)?;
    let mut out = Vec::new();
    for frame in &scan.frames {
        match frame.first() {
            Some(b'R') => out.push(LogRecord::Report(body_string(frame, 1))),
            Some(b'C') => {
                if let (Some(batch), Some(digest), Some(bytes)) =
                    (u64_at(frame, 1), u64_at(frame, 9), u64_at(frame, 17))
                {
                    out.push(LogRecord::Checkpoint {
                        batch: usize::try_from(batch).unwrap_or(usize::MAX),
                        digest,
                        bytes,
                    });
                }
            }
            Some(b'A') => out.push(LogRecord::Append(body_string(frame, 1))),
            _ => {}
        }
    }
    Ok(out)
}

/// Coerce a wire `rows` value — an array of arrays of plain JSON scalars —
/// against a stream schema. Unlike `wire::rows_from_json` (the shard
/// plane's tagged ORow frames), append rows are written by clients in
/// ordinary JSON; the schema decides Int vs Float for bare numbers.
pub fn rows_from_wire(rows: &JVal, schema: &Schema) -> Result<Vec<Vec<Value>>, String> {
    let JVal::Arr(rows) = rows else {
        return Err("rows must be an array of arrays".to_string());
    };
    if rows.is_empty() {
        return Err("rows array is empty".to_string());
    }
    let mut out = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let JVal::Arr(cells) = row else {
            return Err(format!("row {i} is not an array"));
        };
        if cells.len() != schema.len() {
            return Err(format!(
                "row {i} has {} cells but the table has {} columns",
                cells.len(),
                schema.len()
            ));
        }
        let mut vals = Vec::with_capacity(cells.len());
        for (field, cell) in schema.fields().iter().zip(cells) {
            vals.push(coerce_cell(field, cell, i)?);
        }
        out.push(vals);
    }
    Ok(out)
}

/// [`rows_from_wire`] packaged as a [`Relation`] ready for
/// `IolapDriver::append_rows`.
pub fn rows_to_relation(rows: &JVal, schema: &Schema) -> Result<Relation, String> {
    let vals = rows_from_wire(rows, schema)?;
    Ok(Relation::from_values(schema.clone(), vals))
}

/// Decode one append's canonical rows JSON — as `tcp` queues it and an
/// `'A'` record stores it — against the stream schema. The one decoder
/// both a live append and its replay on recovery go through.
pub fn decode_append(rows_json: &str, schema: &Schema) -> Result<Relation, String> {
    let rows = parse(rows_json).map_err(|e| e.to_string())?;
    rows_to_relation(&rows, schema)
}

fn coerce_cell(field: &Field, cell: &JVal, row: usize) -> Result<Value, String> {
    let mismatch = |got: &str| {
        Err(format!(
            "row {row}, column `{}`: cannot coerce {got} to {:?}",
            field.name, field.data_type
        ))
    };
    match (field.data_type, cell) {
        (_, JVal::Null) => Ok(Value::Null),
        (DataType::Bool, JVal::Bool(b)) => Ok(Value::Bool(*b)),
        (DataType::Int, JVal::Int(i)) => Ok(Value::Int(*i)),
        // A float literal (`1e3`) is an integer only where a float holds
        // every integer exactly.
        (DataType::Int, JVal::Num(x)) if x.fract() != 0.0 => mismatch("non-integral number"),
        (DataType::Int, JVal::Num(x)) if x.abs() > 2f64.powi(53) => {
            mismatch("an out-of-range number")
        }
        (DataType::Int, JVal::Num(x)) => Ok(Value::Int(*x as i64)),
        (DataType::Float, JVal::Int(i)) => Ok(Value::Float(*i as f64)),
        (DataType::Float, JVal::Num(x)) => Ok(Value::Float(*x)),
        (DataType::Str, JVal::Str(s)) => Ok(Value::Str(s.as_str().into())),
        (_, JVal::Bool(_)) => mismatch("a boolean"),
        (_, JVal::Int(_) | JVal::Num(_)) => mismatch("a number"),
        (_, JVal::Str(_)) => mismatch("a string"),
        (_, JVal::Arr(_)) => mismatch("an array"),
        (_, JVal::Obj(_)) => mismatch("an object"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static SCRATCH: AtomicUsize = AtomicUsize::new(0);

    fn scratch(name: &str) -> PathBuf {
        let n = SCRATCH.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("iolap-durable-{}-{n}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn manifest_tracks_live_and_finished_sessions() {
        let dir = scratch("manifest");
        let store = DurableStore::open(&dir, false).unwrap();
        store.log_submit(1, r#"{"op":"submit","q":"one"}"#).unwrap();
        store.log_submit(2, r#"{"op":"submit","q":"two"}"#).unwrap();
        store.log_finish(1, "completed").unwrap();
        drop(store);
        let entries = read_manifest(&dir).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].id, 1);
        assert_eq!(entries[0].end.as_deref(), Some("completed"));
        assert_eq!(entries[1].id, 2);
        assert_eq!(entries[1].origin, r#"{"op":"submit","q":"two"}"#);
        assert_eq!(entries[1].end, None);
        // Reopening resumes the manifest rather than clobbering it.
        let store = DurableStore::open(&dir, false).unwrap();
        store.log_finish(2, "cancelled").unwrap();
        drop(store);
        let entries = read_manifest(&dir).unwrap();
        assert_eq!(entries[1].end.as_deref(), Some("cancelled"));
    }

    #[test]
    fn session_log_roundtrips_in_order() {
        let dir = scratch("log");
        let store = DurableStore::open(&dir, false).unwrap();
        store.log_submit(7, "{}").unwrap();
        store.log_report(7, r#"{"batch":0}"#, None).unwrap();
        store.log_checkpoint(7, 0, 0xDEAD_BEEF, 128).unwrap();
        store.log_append(7, "[[1,2.5]]").unwrap();
        store.log_report(7, r#"{"batch":1}"#, None).unwrap();
        drop(store);
        let log = read_session_log(&dir, 7).unwrap();
        assert_eq!(
            log,
            vec![
                LogRecord::Report(r#"{"batch":0}"#.to_string()),
                LogRecord::Checkpoint {
                    batch: 0,
                    digest: 0xDEAD_BEEF,
                    bytes: 128
                },
                LogRecord::Append("[[1,2.5]]".to_string()),
                LogRecord::Report(r#"{"batch":1}"#.to_string()),
            ]
        );
        // A session that never ran has an empty (but present) log; an
        // unknown session has no log at all. Both read as empty.
        assert_eq!(read_session_log(&dir, 999).unwrap(), Vec::new());
    }

    #[test]
    fn torn_report_loses_the_tail() {
        let dir = scratch("torn");
        let store = DurableStore::open(&dir, false).unwrap();
        store.log_submit(3, "{}").unwrap();
        store.log_report(3, r#"{"batch":0}"#, None).unwrap();
        store.log_report(3, r#"{"batch":1}"#, Some(0.6)).unwrap();
        // Appends after the tear are unreachable — crash-loss semantics.
        store.log_report(3, r#"{"batch":2}"#, None).unwrap();
        drop(store);
        let log = read_session_log(&dir, 3).unwrap();
        assert_eq!(log, vec![LogRecord::Report(r#"{"batch":0}"#.to_string())]);
    }

    #[test]
    fn damage_truncate_leaves_a_valid_prefix() {
        let dir = scratch("chop");
        let store = DurableStore::open(&dir, false).unwrap();
        store.log_submit(4, "{}").unwrap();
        store.log_report(4, r#"{"batch":0}"#, None).unwrap();
        store.log_report(4, r#"{"batch":1}"#, None).unwrap();
        store.damage_truncate(4, 0.3).unwrap();
        drop(store);
        let log = read_session_log(&dir, 4).unwrap();
        assert_eq!(log, vec![LogRecord::Report(r#"{"batch":0}"#.to_string())]);
        // Full-body chop still never destroys the segment header.
        let store = DurableStore::open(&dir, false).unwrap();
        let len = store.damage_truncate(4, 1.0).unwrap();
        assert_eq!(len, SEGMENT_HEADER_LEN);
        drop(store);
        assert_eq!(read_session_log(&dir, 4).unwrap(), Vec::new());
    }

    #[test]
    fn missing_manifest_reads_as_empty_fleet() {
        let dir = scratch("empty");
        assert_eq!(read_manifest(&dir).unwrap(), Vec::new());
    }

    fn test_schema() -> Schema {
        Schema::from_pairs(&[
            ("id", DataType::Int),
            ("score", DataType::Float),
            ("name", DataType::Str),
            ("ok", DataType::Bool),
        ])
    }

    #[test]
    fn wire_rows_coerce_against_the_schema() {
        let rows = wire::parse(r#"[[1, 2, "a", true], [2, 3.5, null, false]]"#).unwrap();
        let rel = rows_to_relation(&rows, &test_schema()).unwrap();
        assert_eq!(rel.len(), 2);
        let got = &rel.rows()[0].values;
        assert_eq!(got[0], Value::Int(1));
        // Bare `2` in a Float column becomes 2.0 — the schema decides.
        assert_eq!(got[1], Value::Float(2.0));
        assert_eq!(got[3], Value::Bool(true));
        assert_eq!(rel.rows()[1].values[2], Value::Null);
    }

    #[test]
    fn wire_rows_reject_shape_and_type_errors() {
        let schema = test_schema();
        let bad = |src: &str| rows_from_wire(&wire::parse(src).unwrap(), &schema).unwrap_err();
        assert!(bad("[]").contains("empty"));
        assert!(bad(r#"{"rows":1}"#).contains("array of arrays"));
        assert!(bad("[[1, 2, \"a\"]]").contains("3 cells"));
        assert!(bad(r#"[[1.5, 2.0, "a", true]]"#).contains("non-integral"));
        assert!(bad(r#"[["x", 2.0, "a", true]]"#).contains("cannot coerce"));
        assert!(bad(r#"[[1, 2.0, "a", [true]]]"#).contains("an array"));
        // Float literals keep the 2^53 rule; `1e3` is still an integer.
        assert!(bad(r#"[[1e17, 2.0, "a", true]]"#).contains("column `id`"));
        let rows = wire::parse(r#"[[1e3, 2.0, "a", true]]"#).unwrap();
        let rel = rows_to_relation(&rows, &schema).unwrap();
        assert_eq!(rel.rows()[0].values[0], Value::Int(1000));
    }

    #[test]
    fn appended_integers_arrive_exactly() {
        let exact = [(1i64 << 53) + 1, -((1i64 << 53) + 1), i64::MIN, i64::MAX];
        let request = format!(
            r#"{{"op":"append","rows":[{}]}}"#,
            exact
                .iter()
                .map(|i| format!(r#"[{i}, 1.5, "a", true]"#))
                .collect::<Vec<_>>()
                .join(",")
        );
        let rows = wire::parse(&request).unwrap().get("rows").unwrap().clone();
        // Straight from the request, and through the canonical form `tcp`
        // queues and the `'A'` record stores.
        for rel in [
            rows_to_relation(&rows, &test_schema()).unwrap(),
            decode_append(&rows.render(), &test_schema()).unwrap(),
        ] {
            let got: Vec<Value> = rel.rows().iter().map(|r| r.values[0].clone()).collect();
            assert_eq!(got, exact.map(Value::Int));
        }
        assert!(rows.render().contains("[9007199254740993,1.5"));

        let err = decode_append(r#"[[9223372036854775808, 1.5, "a", true]]"#, &test_schema())
            .unwrap_err();
        assert!(err.contains("column `id`"), "{err}");
    }

    #[test]
    fn reports_print_integer_cells_exactly() {
        let schema = Schema::from_pairs(&[("n", DataType::Int)]);
        let report = iolap_core::BatchReport {
            batch: 0,
            result: iolap_core::QueryResult {
                relation: Relation::from_values(schema, vec![vec![Value::Int(i64::MAX)]]),
                names: vec!["n".to_string()],
                estimates: vec![vec![None]],
            },
            stats: Default::default(),
            metrics: Default::default(),
            elapsed: std::time::Duration::ZERO,
            fraction: 1.0,
            recovered: false,
            state_bytes_join: 0,
            state_bytes_other: 0,
            self_time_ns: Vec::new(),
        };
        let line = crate::tcp::report_json(&report);
        assert!(line.contains(r#""rows":[[9223372036854775807]]"#), "{line}");
    }
}
