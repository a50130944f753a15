//! The harness's own spans: recorded in memory around each call into a
//! layer, written out once when the run ends. With tracing off every call
//! is a branch on a bool.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Handle of an open span; `NONE` when tracing is off or there is no parent.
pub type SpanId = u32;
/// "No span".
pub const NONE: SpanId = 0;

struct Rec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    query_id: u32,
}

/// In-memory span journal shared by every harness thread.
pub struct Spans {
    on: bool,
    origin: Instant,
    recs: Mutex<Vec<Rec>>,
}

impl Spans {
    /// A journal that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            recs: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span caused by `parent`, belonging to request `query_id`.
    pub fn begin(&self, name: &'static str, parent: SpanId, query_id: u32) -> SpanId {
        if !self.on {
            return NONE;
        }
        let start_ns = self.now_ns();
        let mut recs = self.recs.lock().expect("span journal poisoned");
        recs.push(Rec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            query_id,
        });
        recs.len() as SpanId
    }

    /// Close a span opened by [`Spans::begin`].
    pub fn end(&self, id: SpanId) {
        if id == NONE {
            return;
        }
        let end_ns = self.now_ns();
        let mut recs = self.recs.lock().expect("span journal poisoned");
        if let Some(r) = recs.get_mut(id as usize - 1) {
            r.end_ns = end_ns;
        }
    }

    /// Self time per span name: each span's duration minus the part its
    /// direct children cover.
    pub fn self_time_ns(&self) -> BTreeMap<&'static str, u64> {
        let recs = self.recs.lock().expect("span journal poisoned");
        let mut child_ns = vec![0u64; recs.len()];
        for r in recs.iter() {
            if r.parent != NONE {
                child_ns[r.parent as usize - 1] += r.end_ns - r.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (r, covered) in recs.iter().zip(child_ns) {
            *out.entry(r.name).or_insert(0) += (r.end_ns - r.start_ns).saturating_sub(covered);
        }
        out
    }

    /// Write one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let recs = self.recs.lock().expect("span journal poisoned");
        let mut out = String::with_capacity(recs.len() * 96);
        for (i, r) in recs.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"query_id\":{}}}",
                i + 1,
                r.name,
                r.start_ns,
                r.end_ns,
                r.parent,
                r.query_id
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
