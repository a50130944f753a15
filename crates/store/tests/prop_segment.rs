//! Never-panic properties of the segment reader on damaged files.
//!
//! A segment on disk is untrusted input: a crash leaves a torn tail, a bad
//! disk flips bits. [`scan_segment`] must answer every such file with an
//! error (header damage) or the longest valid prefix of what was written —
//! never a panic, never a frame that was not appended.

use iolap_store::{scan_segment, SegmentScan, SegmentWriter, FRAME_HEADER_LEN, SEGMENT_HEADER_LEN};
use proptest::prelude::*;
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SCRATCH: AtomicUsize = AtomicUsize::new(0);
    let n = SCRATCH.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("iolap-segfuzz-{}-{n}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("s.seg")
}

/// The bytes of a segment holding `frames`, in order.
fn segment_bytes(frames: &[Vec<u8>]) -> Vec<u8> {
    let path = scratch("build");
    let mut w = SegmentWriter::create(&path, false).unwrap();
    for f in frames {
        w.append(f).unwrap();
    }
    drop(w);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    bytes
}

/// Scan `bytes` as a segment file.
fn scan_bytes(bytes: &[u8]) -> std::io::Result<SegmentScan> {
    let path = scratch("scan");
    std::fs::write(&path, bytes).unwrap();
    let scan = scan_segment(&path);
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    scan
}

/// Offset of each frame's header, then the end of the file.
fn frame_starts(frames: &[Vec<u8>]) -> Vec<usize> {
    let mut at = vec![SEGMENT_HEADER_LEN as usize];
    for f in frames {
        at.push(at[at.len() - 1] + FRAME_HEADER_LEN as usize + f.len());
    }
    at
}

fn payloads() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 0..6)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

    /// A segment cut anywhere reads as the frames that lie wholly before
    /// the cut, flagged truncated when bytes of a frame remain after them.
    #[test]
    fn truncated_segment_reads_as_its_whole_frames(frames in payloads(), cut in any::<u64>()) {
        let bytes = segment_bytes(&frames);
        let len = (cut % (bytes.len() as u64 + 1)) as usize;
        match scan_bytes(&bytes[..len]) {
            Err(_) => prop_assert!(len < SEGMENT_HEADER_LEN as usize, "cut at {len}"),
            Ok(scan) => {
                let starts = frame_starts(&frames);
                let whole = starts.iter().filter(|&&end| end <= len).count() - 1;
                prop_assert_eq!(&scan.frames[..], &frames[..whole]);
                prop_assert_eq!(scan.valid_len as usize, starts[whole]);
                prop_assert_eq!(scan.truncated, starts[whole] != len);
            }
        }
    }

    /// One flipped bit is an error in the header and otherwise costs the
    /// frame it lands in and everything after it: CRC32 catches every
    /// single-bit error in a payload, and a damaged length or CRC field no
    /// longer matches its payload.
    #[test]
    fn a_flipped_bit_costs_its_frame_and_the_rest(
        frames in payloads(),
        at in any::<u64>(),
        bit in 0u32..8,
    ) {
        let mut bytes = segment_bytes(&frames);
        let at = (at % bytes.len() as u64) as usize;
        bytes[at] ^= 1 << bit;
        match scan_bytes(&bytes) {
            Err(_) => prop_assert!(at < SEGMENT_HEADER_LEN as usize, "flip at {at}"),
            Ok(scan) => {
                prop_assert!(at >= SEGMENT_HEADER_LEN as usize, "flip at {at} read clean");
                let hit = frame_starts(&frames).iter().filter(|&&s| s <= at).count() - 1;
                prop_assert_eq!(&scan.frames[..], &frames[..hit]);
                prop_assert!(scan.truncated);
            }
        }
    }

    /// Frames whose CRC is right come back whatever their bytes are, and
    /// arbitrary bytes — after valid frames or in place of the header —
    /// read as a prefix or an error.
    #[test]
    fn garbage_reads_as_a_prefix_or_an_error(
        frames in payloads(),
        tail in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut bytes = segment_bytes(&frames);
        let scan = scan_bytes(&bytes).unwrap();
        prop_assert_eq!(&scan.frames, &frames);
        prop_assert!(!scan.truncated);
        bytes.extend_from_slice(&tail);
        let scan = scan_bytes(&bytes).unwrap();
        prop_assert!(scan.frames.len() >= frames.len());
        prop_assert_eq!(&scan.frames[..frames.len()], &frames[..]);
        prop_assert!(scan.valid_len as usize <= bytes.len());
        let _ = scan_bytes(&tail);
    }
}
