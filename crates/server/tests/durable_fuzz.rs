//! Never-panic properties at the durable boundary.
//!
//! A restarted server reads its manifest and session logs back from disk
//! and decodes them: `read_manifest`, `read_session_log`, `decode_append`
//! and, driving them all, `Server::recover`. Those bytes are untrusted —
//! a crash truncates them, a bad disk flips bits, and a damaged record can
//! survive its CRC. Every such input must decode to an error or to a prefix
//! of what was logged, and recovery must skip what it cannot use; none of
//! it may panic.

use iolap_core::{IolapConfig, IolapDriver};
use iolap_relation::{DataType, Schema};
use iolap_server::durable::{
    decode_append, manifest_path, read_manifest, read_session_log, session_log_path, DurableStore,
    LogRecord, ManifestEntry,
};
use iolap_server::tcp::SubmitFactory;
use iolap_server::wire::parse;
use iolap_server::{AdmitError, Server, ServerConfig};
use iolap_store::{SegmentWriter, SEGMENT_HEADER_LEN};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A valid submit request, as the manifest records it.
const ORIGIN: &str = r#"{"op":"submit","query":"C3"}"#;

fn scratch(name: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SCRATCH: AtomicUsize = AtomicUsize::new(0);
    let n = SCRATCH.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("iolap-durfuzz-{}-{n}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("a", DataType::Int),
        ("b", DataType::Float),
        ("s", DataType::Str),
    ])
}

/// The manifest and session-1 log bytes of a small, healthy durable
/// directory: two sessions, one finished, and a log holding every record
/// kind.
fn healthy_logs() -> (Vec<u8>, Vec<u8>) {
    let dir = scratch("healthy");
    let store = DurableStore::open(&dir, false).unwrap();
    store.log_submit(1, ORIGIN).unwrap();
    store.log_report(1, r#"{"batch":0}"#, None).unwrap();
    store.log_checkpoint(1, 0, 0xDEAD_BEEF, 128).unwrap();
    store
        .log_append(1, r#"[[1,2.5,"x"],[2,null,"y"]]"#)
        .unwrap();
    store.log_report(1, r#"{"batch":1}"#, None).unwrap();
    store.log_submit(2, ORIGIN).unwrap();
    store.log_finish(1, "completed").unwrap();
    drop(store);
    let manifest = std::fs::read(manifest_path(&dir)).unwrap();
    let log = std::fs::read(session_log_path(&dir, 1)).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    (manifest, log)
}

/// A durable directory holding `manifest` and, as session 1's log, `log`.
fn dir_with(manifest: &[u8], log: &[u8]) -> PathBuf {
    let dir = scratch("damaged");
    std::fs::write(manifest_path(&dir), manifest).unwrap();
    std::fs::write(session_log_path(&dir, 1), log).unwrap();
    dir
}

/// What a damaged copy of [`healthy_logs`]'s session log may decode to: an
/// error only when the damage reaches the segment header, otherwise a
/// prefix of the healthy records.
fn assert_log_prefix_or_error(
    dir: &Path,
    header_hit: bool,
    full: &(Vec<ManifestEntry>, Vec<LogRecord>),
) -> Result<(), TestCaseError> {
    match read_session_log(dir, 1) {
        Err(_) => prop_assert!(header_hit, "a log with a sound header was refused"),
        Ok(records) => {
            prop_assert!(records.len() <= full.1.len());
            prop_assert_eq!(&records[..], &full.1[..records.len()]);
        }
    }
    Ok(())
}

/// The same for the manifest, where a prefix may also have lost a
/// session's end record.
fn assert_manifest_prefix_or_error(
    dir: &Path,
    header_hit: bool,
    full: &(Vec<ManifestEntry>, Vec<LogRecord>),
) -> Result<(), TestCaseError> {
    match read_manifest(dir) {
        Err(_) => prop_assert!(header_hit, "a manifest with a sound header was refused"),
        Ok(entries) => {
            prop_assert!(entries.len() <= full.0.len());
            for (got, want) in entries.iter().zip(&full.0) {
                prop_assert_eq!(got.id, want.id);
                prop_assert_eq!(&got.origin, &want.origin);
                prop_assert!(got.end.is_none() || got.end == want.end);
            }
        }
    }
    Ok(())
}

fn decoded_healthy() -> (Vec<ManifestEntry>, Vec<LogRecord>) {
    let (manifest, log) = healthy_logs();
    let dir = dir_with(&manifest, &log);
    let full = (
        read_manifest(&dir).unwrap(),
        read_session_log(&dir, 1).unwrap(),
    );
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(full.0.len(), 2);
    assert_eq!(full.1.len(), 4);
    full
}

/// Bytes a JSON decoder has to look at before it can refuse them.
const JSONISH: &[u8] = b"[]{},:\"0123456789.-+eEtruefalsn \\";

/// A payload whose CRC is right and whose content is anything: a record
/// tag (known or not), maybe a small or any session id, then a body of
/// JSON-like bytes, raw bytes, a valid origin or a valid append.
fn garbage_frame() -> impl Strategy<Value = Vec<u8>> {
    let tag = prop_oneof![
        Just(b'S'),
        Just(b'D'),
        Just(b'R'),
        Just(b'C'),
        Just(b'A'),
        any::<u8>()
    ];
    let id = prop_oneof![0u64..4, Just(u64::MAX), any::<u64>()];
    let body = prop_oneof![
        prop::collection::vec(0..JSONISH.len(), 0..40)
            .prop_map(|ix| ix.into_iter().map(|i| JSONISH[i]).collect::<Vec<u8>>()),
        prop::collection::vec(any::<u8>(), 0..40),
        Just(ORIGIN.as_bytes().to_vec()),
        Just(br#"[[1,2.5,"x"]]"#.to_vec()),
    ];
    (tag, any::<bool>(), id, body).prop_map(|(tag, with_id, id, body)| {
        let mut frame = vec![tag];
        if with_id {
            frame.extend_from_slice(&id.to_le_bytes());
        }
        frame.extend_from_slice(&body);
        frame
    })
}

/// A manifest record of a recoverable shape: admission of a small session
/// id with a valid origin, or its end — or any garbage frame.
fn manifest_frame() -> impl Strategy<Value = Vec<u8>> {
    let record = |tag: u8, body: &'static [u8]| {
        (0u64..4).prop_map(move |id| {
            let mut frame = vec![tag];
            frame.extend_from_slice(&id.to_le_bytes());
            frame.extend_from_slice(body);
            frame
        })
    };
    prop_oneof![
        record(b'S', ORIGIN.as_bytes()),
        record(b'D', b"completed"),
        garbage_frame()
    ]
}

/// A session-log record of a known kind with a damaged body — a report
/// line, a checkpoint naming any batch, an append of anything — or any
/// garbage frame.
fn log_frame() -> impl Strategy<Value = Vec<u8>> {
    let word = prop_oneof![0u64..4, Just(u64::MAX), any::<u64>()];
    prop_oneof![
        garbage_frame().prop_map(|mut frame| {
            frame[0] = b'R';
            frame
        }),
        (word.clone(), word.clone(), word).prop_map(|(batch, digest, bytes)| {
            let mut frame = vec![b'C'];
            for w in [batch, digest, bytes] {
                frame.extend_from_slice(&w.to_le_bytes());
            }
            frame
        }),
        garbage_frame().prop_map(|mut frame| {
            frame[0] = b'A';
            frame
        }),
        garbage_frame()
    ]
}

fn write_segment(path: &Path, frames: &[Vec<u8>]) {
    let mut w = SegmentWriter::create(path, false).unwrap();
    for f in frames {
        w.append(f).unwrap();
    }
}

/// Builds the same small C3 driver for any request: recovery then gets as
/// far as replaying whatever the garbage log holds.
fn any_request_factory() -> SubmitFactory {
    let catalog = iolap_workloads::conviva_catalog(60, 17);
    let registry = iolap_workloads::conviva_registry();
    let sql = iolap_workloads::conviva_query("C3").unwrap().sql;
    Arc::new(move |req| {
        let cfg = IolapConfig::with_batches(3).trials(4).seed(17);
        let driver = IolapDriver::from_sql(sql, &catalog, &registry, "sessions", cfg)
            .map_err(|e| e.to_string())?;
        Ok((driver, iolap_server::tcp::spec_from_request(req)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 150, ..ProptestConfig::default() })]

    /// Both logs cut anywhere decode to a prefix of the healthy records.
    #[test]
    fn truncated_logs_decode_to_a_prefix(cut_m in any::<u64>(), cut_l in any::<u64>()) {
        let (manifest, log) = healthy_logs();
        let full = decoded_healthy();
        let m = (cut_m % (manifest.len() as u64 + 1)) as usize;
        let l = (cut_l % (log.len() as u64 + 1)) as usize;
        let dir = dir_with(&manifest[..m], &log[..l]);
        let header = SEGMENT_HEADER_LEN as usize;
        assert_manifest_prefix_or_error(&dir, m < header, &full)?;
        assert_log_prefix_or_error(&dir, l < header, &full)?;
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One flipped bit in either log decodes to a prefix of the healthy
    /// records, or to an error when it lands in the segment header.
    #[test]
    fn flipped_bits_decode_to_a_prefix(
        at_m in any::<u64>(),
        at_l in any::<u64>(),
        bit in 0u32..8,
    ) {
        let (mut manifest, mut log) = healthy_logs();
        let full = decoded_healthy();
        let m = (at_m % manifest.len() as u64) as usize;
        let l = (at_l % log.len() as u64) as usize;
        manifest[m] ^= 1 << bit;
        log[l] ^= 1 << bit;
        let dir = dir_with(&manifest, &log);
        let header = SEGMENT_HEADER_LEN as usize;
        assert_manifest_prefix_or_error(&dir, m < header, &full)?;
        assert_log_prefix_or_error(&dir, l < header, &full)?;
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// CRC-valid frames with garbage payloads: the readers skip what they
    /// do not know and never refuse a sound segment, and every decoder
    /// downstream of them answers `Ok` or `Err`.
    #[test]
    fn crc_valid_garbage_decodes_without_panic(
        manifest in prop::collection::vec(garbage_frame(), 0..8),
        logs in prop::collection::vec(prop::collection::vec(garbage_frame(), 0..8), 4),
    ) {
        let dir = scratch("garbage");
        write_segment(&manifest_path(&dir), &manifest);
        for (id, frames) in logs.iter().enumerate() {
            write_segment(&session_log_path(&dir, id as u64), frames);
        }
        for entry in read_manifest(&dir).unwrap() {
            let _ = parse(&entry.origin);
        }
        for id in 0..logs.len() as u64 {
            for record in read_session_log(&dir, id).unwrap() {
                match record {
                    LogRecord::Append(rows) => {
                        let _ = decode_append(&rows, &schema());
                    }
                    LogRecord::Report(line) => {
                        let _ = parse(&line);
                    }
                    LogRecord::Checkpoint { .. } => {}
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 100, ..ProptestConfig::default() })]

    /// `Server::recover` over CRC-valid garbage logs resumes or skips each
    /// session, and never panics.
    #[test]
    fn recovery_over_garbage_logs_skips_without_panic(
        manifest in prop::collection::vec(manifest_frame(), 0..6),
        logs in prop::collection::vec(prop::collection::vec(log_frame(), 0..6), 4),
    ) {
        let dir = scratch("recover");
        write_segment(&manifest_path(&dir), &manifest);
        for (id, frames) in logs.iter().enumerate() {
            write_segment(&session_log_path(&dir, id as u64), frames);
        }
        let server = Server::new(ServerConfig::with_workers(1).durable(dir.clone()));
        let _ = server.recover(&any_request_factory());
        server.shutdown();
        drop(server);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Regression, found by the property above: a manifest `'S'` record naming
/// session `u64::MAX` overflowed the id reservation in `Server::recover`.
/// That id is skipped; one just below it is resumed, and the exhausted id
/// counter then refuses a submit instead of overflowing.
#[test]
fn recovery_skips_a_session_id_of_u64_max() {
    let dir = scratch("max-id");
    let record = |id: u64| {
        let mut frame = vec![b'S'];
        frame.extend_from_slice(&id.to_le_bytes());
        frame.extend_from_slice(ORIGIN.as_bytes());
        frame
    };
    write_segment(
        &manifest_path(&dir),
        &[record(u64::MAX), record(u64::MAX - 1)],
    );
    let server = Server::new(ServerConfig::with_workers(1).durable(dir.clone()));
    let factory = any_request_factory();
    let report = server.recover(&factory);
    assert_eq!(
        report.skipped,
        vec![(u64::MAX, "session id out of range".to_string())]
    );
    assert_eq!(report.resumed, vec![u64::MAX - 1]);
    let (driver, spec) = factory(&parse(ORIGIN).unwrap()).unwrap();
    assert_eq!(
        server.submit(driver, spec).unwrap_err(),
        AdmitError::IdsExhausted
    );
    server.shutdown();
    drop(server);
    std::fs::remove_dir_all(&dir).unwrap();
}
