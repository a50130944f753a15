//! Offline source lints: hand-rolled (zero registry dependencies) checks
//! enforcing repo rules that rustc/clippy cannot express.
//!
//! Since analysis v2 the lints run over the token stream of
//! [`crate::lexer`], not raw line text, so string literals, comments, and
//! doc-comments can never produce findings. Finding *text* is still the
//! (chain-folded) source line, so `scripts/lint-allow.txt` substring
//! entries keep their meaning.
//!
//! Rules:
//!
//! * **L001 `no-panic-hot`** — no `.unwrap()`, `.expect(`, or panic-family
//!   macros in the online-operator hot paths (`crates/core/src/ops.rs`,
//!   `ops_agg.rs`, `ops_join.rs`). A bad row must surface as an
//!   `EngineError` the driver can report, not abort the process mid-batch.
//! * **L002 `no-unordered-iter-output`** — no direct `HashMap`/`HashSet`
//!   iteration in files whose iteration order can reach a `Sink` or a
//!   `BatchReport` (`crates/core/src/registry.rs`, `sink.rs`,
//!   `crates/baselines/src/hda.rs`): two runs of the same query must
//!   produce byte-identical reports.
//! * **L003 `no-instant-outside-metrics`** — no `Instant` outside
//!   `crates/core/src/metrics.rs`; all timing goes through `Span` so the
//!   metrics layer stays the single clock authority.
//! * **L004 `fault-hook-ungated`** — every fault-injection hook
//!   (`inject_*` call) in `crates/core/src/*.rs` outside `faults.rs` must
//!   sit behind an armed-injector gate: a `Some(` match on the same
//!   logical line or within the two preceding ones (the window tolerates
//!   rustfmt wrapping an `if let Some(f) = …` header away from the call).
//!   A hook without a gate would fire even when the config carries no
//!   `FaultPlan` — i.e. in production — so L004 findings are **not**
//!   allowlistable.
//! * **L005 `instrumentation-coverage`** — every `fn process(` body in the
//!   operator hot-path files (the L001 file set) must open a trace span
//!   via `ctx.op_span(` before the next `fn `, so a traced batch timeline
//!   never silently folds an operator's time into its parent. The
//!   `OnlineOp` enum dispatcher (a pure `match self` delegation) is
//!   exempt.
//! * **L006 `no-unbounded-blocking`** — no unbounded blocking in the
//!   serving layer's scheduler/admission hot paths and the shard
//!   coordinator (`crates/server/src/scheduler.rs`, `session.rs`,
//!   `shard.rs`): no
//!   `thread::sleep`, no bare channel `.recv()`, no `Condvar` `.wait(`
//!   without a timeout (`.wait_timeout(` is the sanctioned form). A
//!   stalled or slow driver must never wedge admission or a polling
//!   client behind an unbounded park. The worker pool's park/unpark core
//!   is the one audited exception, allowlisted in
//!   `scripts/lint-allow.txt`.
//! * **L007 `no-row-materialization-in-kernels`** — no per-row `Value`
//!   materialization inside the columnar kernel modules (any file under a
//!   `src/kernels/` directory): no `.clone()`, `.to_vec()`, or
//!   `.to_owned()`. Kernels must work over typed column vectors and
//!   selection indices. The row⇄batch facade (`kernels/facade.rs`) is the
//!   audited exception and is allowlisted.
//! * **L008 `panic-reachable-hot`** — interprocedural: no panic site
//!   (`.unwrap(`/`.expect(`/panic-family macro) in any function reachable
//!   over the call graph from the hot-path roots (`OnlineOp::process`, the
//!   driver's `step`/`run_batch`/`run_to_completion`, the scheduler's
//!   `worker_loop`). This closes L001's fixed-file-list gap: a panic in a
//!   helper three calls deep is a finding. `crates/core/src/faults.rs` is
//!   exempt by rule definition — its panics are deliberate injected
//!   faults contained by the driver's `catch_unwind` perimeter.
//! * **L009 `lock-order-deadlock`** — static lock-order analysis of
//!   `crates/server`: held-lock sets propagated over the call graph; any
//!   cycle in the lock-order graph, or re-acquiring a held lock, is a
//!   finding. See [`crate::lockorder`].
//! * **L010 `stale-allow-entry`** — every `scripts/lint-allow.txt` entry
//!   must still match a live finding; dead entries are themselves errors
//!   (a suppression must not outlive the code it excused). Reported with
//!   the allowlist file/line. Not allowlistable.
//! * **L011 `serving-instrumentation-coverage`** — L005's discipline
//!   extended to the serving layer: every function body in
//!   `crates/server/src/scheduler.rs` that transitions a session state
//!   (`.state =`), flips slot ownership (`.holds_slot =`), or bumps an
//!   admission/shed counter (`.rejected +=` / `.shed +=`) must also call
//!   `trace_mark` in the same body, so no lifecycle transition or
//!   scheduler decision is invisible to the telemetry plane. Not
//!   allowlistable — an unobservable transition defeats the tracing
//!   contract by construction.
//! * **L012 `raw-durable-write`** — all durable writes go through
//!   `iolap-store`'s CRC-framed segment writer or atomic artifact
//!   replace: no raw `std::fs::write`, `File::create`, or
//!   `OpenOptions::new` anywhere under `crates/*/src/**` except
//!   `crates/store/` itself. A raw write has no torn-write detection and
//!   no crash-consistent rename, so a kill mid-write corrupts state the
//!   recovery path then trusts. The golden-file updaters (opt-in via
//!   `IOLAP_UPDATE_GOLDEN`) live in test files, which the lints do not
//!   scan, so no exception is allowlisted.
//! * **L013 `pub-fn-unreferenced`** — every `pub`/`pub(crate)` fn under
//!   `crates/*/src` must be named by some token of the workspace's Rust
//!   sources other than a `fn NAME` definition: crate `src`/`tests`/
//!   `benches`, `src/`, `tests/`, `examples/` and `benchmark/src`.
//!   Comments and doc mentions do not count. Dead public surface is
//!   deleted, not kept "for later"; the allowlist carries no L013 entry.
//!   Whole-workspace, so it runs in [`lint_tree`] only.
//!
//! Tokens after the first `#[cfg(test)]` attribute (the repo convention
//! keeps test modules last) are not linted. Audited exceptions live in
//! `scripts/lint-allow.txt`, one per line:
//!
//! ```text
//! RULE  FILE-SUFFIX  SUBSTRING-OF-FLAGGED-LINE
//! ```

use crate::callgraph::{self, CallGraph};
use crate::diag::Rule;
use crate::lexer::{self, TokKind, Token};
use crate::lockorder;
use iolap_core::json::JVal;
use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One source-lint finding.
#[derive(Clone, Debug)]
pub struct LintFinding {
    /// Violated rule.
    pub rule: Rule,
    /// Repo-relative path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The flagged source line (chain-folded), trimmed — or, for the
    /// interprocedural rules, a rendered description of the finding.
    pub text: String,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at {}:{}: {}",
            self.rule, self.file, self.line, self.text
        )
    }
}

/// Parsed allowlist of audited exceptions.
#[derive(Clone, Debug, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

/// One parsed allowlist entry with its source line (for L010 reporting).
#[derive(Clone, Debug)]
pub struct AllowEntry {
    /// Rule id, e.g. `"L006"`.
    pub rule: String,
    /// Path suffix the entry applies to.
    pub file: String,
    /// Substring of the flagged line.
    pub substr: String,
    /// 1-based line in the allowlist file.
    pub line: usize,
}

impl AllowEntry {
    fn matches(&self, finding: &LintFinding) -> bool {
        self.rule == finding.rule.id()
            && finding.file.ends_with(self.file.as_str())
            && finding.text.contains(self.substr.as_str())
    }
}

impl Allowlist {
    /// Parse allowlist text. Each non-comment line is
    /// `RULE<ws>FILE<ws>SUBSTRING` where SUBSTRING is the rest of the line.
    pub fn parse(text: &str) -> Allowlist {
        let mut entries = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, char::is_whitespace);
            let (Some(rule), Some(file)) = (parts.next(), parts.next()) else {
                continue;
            };
            let substr = parts.next().unwrap_or("").trim().to_string();
            entries.push(AllowEntry {
                rule: rule.to_string(),
                file: file.to_string(),
                substr,
                line: i + 1,
            });
        }
        Allowlist { entries }
    }

    /// Load from a file; a missing file is an empty allowlist.
    pub fn load(path: &Path) -> io::Result<Allowlist> {
        match fs::read_to_string(path) {
            Ok(text) => Ok(Allowlist::parse(&text)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Allowlist::default()),
            Err(e) => Err(e),
        }
    }

    /// Whether `finding` matches an audited exception: rule equal, file a
    /// path-suffix match, and the entry substring contained in the flagged
    /// line. L004 findings are never allowed — an ungated fault hook is a
    /// release-reachability bug, not an auditable style exception. L010
    /// findings (stale entries) are likewise never allowlistable: an
    /// allowlist cannot excuse its own rot. L011 (a scheduler transition
    /// invisible to tracing) defeats the telemetry contract by
    /// construction, so it too refuses the allowlist.
    pub fn allows(&self, finding: &LintFinding) -> bool {
        if matches!(finding.rule, Rule::L004 | Rule::L010 | Rule::L011) {
            return false;
        }
        self.entries.iter().any(|e| e.matches(finding))
    }

    /// L010: entries that match none of `findings` are stale — the code
    /// they excused no longer triggers the rule — and become findings
    /// themselves, pointing at the allowlist file/line.
    pub fn stale_entries(&self, findings: &[LintFinding]) -> Vec<LintFinding> {
        self.entries
            .iter()
            .filter(|e| !findings.iter().any(|f| e.matches(f)))
            .map(|e| LintFinding {
                rule: Rule::L010,
                file: "scripts/lint-allow.txt".to_string(),
                line: e.line,
                text: format!(
                    "stale allowlist entry `{} {} {}` matches no live finding",
                    e.rule, e.file, e.substr
                ),
            })
            .collect()
    }

    /// Number of entries (reporting).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no exceptions are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

const L001_FILES: &[&str] = &[
    "crates/core/src/ops.rs",
    "crates/core/src/ops_agg.rs",
    "crates/core/src/ops_join.rs",
];

const L002_FILES: &[&str] = &[
    "crates/core/src/registry.rs",
    "crates/core/src/sink.rs",
    "crates/baselines/src/hda.rs",
];

/// The serving layer's scheduler/admission hot paths, plus the shard
/// coordinator (a stalled worker must surface as a read-timeout `Err`,
/// never wedge a fold behind an unbounded park). `tcp.rs` is exempt:
/// socket reads legitimately block on the network.
const L006_FILES: &[&str] = &[
    "crates/server/src/scheduler.rs",
    "crates/server/src/session.rs",
    "crates/server/src/shard.rs",
];

/// Order-revealing hash-container accessors (L002). Point lookups
/// (`get`/`insert`/`contains_key`) stay legal.
const L002_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
];

/// Per-row materialization methods forbidden in kernel modules (L007).
const L007_METHODS: &[&str] = &["clone", "to_vec", "to_owned"];

/// L008 call-graph roots: `(file suffix, fn name)`. A panic site in any
/// function reachable from one of these is a finding.
pub const L008_ROOTS: &[(&str, &str)] = &[
    ("crates/core/src/ops.rs", "process"),
    ("crates/core/src/driver.rs", "step"),
    ("crates/core/src/driver.rs", "run_batch"),
    ("crates/core/src/driver.rs", "run_to_completion"),
    ("crates/server/src/scheduler.rs", "worker_loop"),
];

/// Files whose panic *sites* L008 ignores: deliberate fault injection
/// contained by the driver's `catch_unwind` perimeter.
const L008_EXEMPT: &[&str] = &["crates/core/src/faults.rs"];

/// L011 scope: the scheduler owns every session state transition and
/// admission/shed decision, so coverage is checked there (allowlist-free,
/// like L004/L010).
const L011_FILES: &[&str] = &["crates/server/src/scheduler.rs"];

/// Workspace directories outside `crates/` whose sources count as L013
/// references (everything under `crates/` already does).
const L013_REF_DIRS: &[&str] = &["src", "tests", "examples", "benchmark/src"];

/// Source-line index: maps token lines back to chain-folded logical lines
/// so finding text and line numbers match the historical (allowlist-
/// compatible) form.
struct LineIndex {
    /// Logical lines: `(1-based start line, folded text)`.
    logical: Vec<(usize, String)>,
    /// Physical 1-based line → index into `logical`.
    map: Vec<usize>,
}

impl LineIndex {
    fn build(content: &str) -> LineIndex {
        let mut logical: Vec<(usize, String)> = Vec::new();
        let mut map: Vec<usize> = vec![0];
        for (i, line) in content.lines().enumerate() {
            let trimmed = line.trim_start();
            // Comment-only lines carry no tokens and do not break a chain
            // or consume a slot in the L004 gate window.
            if trimmed.starts_with("//") && !logical.is_empty() {
                map.push(logical.len() - 1);
                continue;
            }
            // Method-chain continuations fold into the previous logical
            // line so `self.state\n    .values()` reports the chain start.
            match logical.last_mut() {
                Some((_, prev)) if trimmed.starts_with('.') => prev.push_str(trimmed.trim_end()),
                _ => logical.push((i + 1, line.trim_end().to_string())),
            }
            map.push(logical.len() - 1);
        }
        if logical.is_empty() {
            logical.push((1, String::new()));
        }
        LineIndex { logical, map }
    }

    /// Logical index for a physical line.
    fn idx(&self, line: usize) -> usize {
        self.map
            .get(line)
            .copied()
            .unwrap_or(self.logical.len() - 1)
    }
}

/// Lint one file's source (the per-file rules L001–L007). `rel_path` is
/// repo-relative with forward slashes; rules are dispatched on it. The
/// interprocedural rules (L008/L009) need the whole file set — use
/// [`lint_files`] or [`lint_tree`].
pub fn lint_source(rel_path: &str, content: &str) -> Vec<LintFinding> {
    let tokens = lexer::lex(content);
    let toks = lexer::production_prefix(&tokens);
    let index = LineIndex::build(content);
    // (rule, logical index) pairs; the set dedups chain-folded repeats.
    let mut hits: BTreeSet<(Rule, usize)> = BTreeSet::new();

    if L001_FILES.contains(&rel_path) {
        for line in panic_site_lines(toks) {
            hits.insert((Rule::L001, index.idx(line)));
        }
        for line in spanless_process_lines(toks) {
            hits.insert((Rule::L005, index.idx(line)));
        }
    }

    if L002_FILES.contains(&rel_path) {
        let tracked = tracked_hash_idents(toks);
        for line in unordered_iteration_lines(toks, &tracked) {
            hits.insert((Rule::L002, index.idx(line)));
        }
    }

    if rel_path.starts_with("crates/core/src/") && rel_path != "crates/core/src/metrics.rs" {
        for t in toks {
            if t.is_ident("Instant") {
                hits.insert((Rule::L003, index.idx(t.line)));
            }
        }
    }

    if L006_FILES.contains(&rel_path) {
        for line in unbounded_blocking_lines(toks) {
            hits.insert((Rule::L006, index.idx(line)));
        }
    }

    if L011_FILES.contains(&rel_path) {
        for line in untraced_transition_lines(toks) {
            hits.insert((Rule::L011, index.idx(line)));
        }
    }

    if rel_path.starts_with("crates/")
        && rel_path.contains("/src/")
        && !rel_path.starts_with("crates/store/")
    {
        for line in raw_durable_write_lines(toks) {
            hits.insert((Rule::L012, index.idx(line)));
        }
    }

    if rel_path.contains("/src/kernels/") {
        for (i, t) in toks.iter().enumerate() {
            if i > 0
                && toks[i - 1].is_punct('.')
                && t.kind == TokKind::Ident
                && L007_METHODS.contains(&t.text.as_str())
                && toks.get(i + 1).is_some_and(|p| p.is_punct('('))
                && toks.get(i + 2).is_some_and(|p| p.is_punct(')'))
            {
                hits.insert((Rule::L007, index.idx(t.line)));
            }
        }
    }

    if rel_path.starts_with("crates/core/src/") && rel_path != "crates/core/src/faults.rs" {
        // Logical lines containing a `Some(` token pair, for the gate check.
        let mut gated: BTreeSet<usize> = BTreeSet::new();
        for (i, t) in toks.iter().enumerate() {
            if t.is_ident("Some") && toks.get(i + 1).is_some_and(|p| p.is_punct('(')) {
                gated.insert(index.idx(t.line));
            }
        }
        for (i, t) in toks.iter().enumerate() {
            if t.kind == TokKind::Ident
                && t.text.starts_with("inject_")
                && toks.get(i + 1).is_some_and(|p| p.is_punct('('))
            {
                let k = index.idx(t.line);
                let is_gated = (k.saturating_sub(2)..=k).any(|p| gated.contains(&p));
                if !is_gated {
                    hits.insert((Rule::L004, k));
                }
            }
        }
    }

    let mut findings: Vec<LintFinding> = hits
        .into_iter()
        .map(|(rule, idx)| {
            let (no, text) = &index.logical[idx];
            LintFinding {
                rule,
                file: rel_path.to_string(),
                line: *no,
                text: text.trim().to_string(),
            }
        })
        .collect();
    findings.sort_by_key(|a| (a.line, a.rule));
    findings
}

/// Token lines of panic sites: `.unwrap(` / `.expect(` method calls and
/// panic-family macro invocations.
fn panic_site_lines(toks: &[Token]) -> Vec<usize> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let prev_dot = i > 0 && toks[i - 1].is_punct('.');
        let next_paren = toks.get(i + 1).is_some_and(|p| p.is_punct('('));
        if prev_dot && next_paren && (t.text == "unwrap" || t.text == "expect") {
            out.push(t.line);
        }
        if !prev_dot
            && toks.get(i + 1).is_some_and(|p| p.is_punct('!'))
            && toks.get(i + 2).is_some_and(|p| p.is_punct('('))
            && matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
        {
            out.push(t.line);
        }
    }
    out
}

/// L005: `fn process(` bodies (to the next `fn` token) without an
/// `.op_span(` call; `match self` dispatchers are exempt. Returns the
/// lines of the offending `fn` tokens.
fn spanless_process_lines(toks: &[Token]) -> Vec<usize> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("fn")
            && toks.get(i + 1).is_some_and(|t| t.is_ident("process"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
        {
            let end = toks[i + 1..]
                .iter()
                .position(|t| t.is_ident("fn"))
                .map(|p| i + 1 + p)
                .unwrap_or(toks.len());
            let body = &toks[i..end];
            let spanned = body
                .windows(3)
                .any(|w| w[0].is_punct('.') && w[1].is_ident("op_span") && w[2].is_punct('('));
            let dispatcher = body
                .windows(2)
                .any(|w| w[0].is_ident("match") && w[1].is_ident("self"));
            if !spanned && !dispatcher {
                out.push(toks[i].line);
            }
            i = end;
            continue;
        }
        i += 1;
    }
    out
}

/// L011: function bodies (to the next `fn` token, like L005) that mutate
/// scheduler-observable state — `.state =` / `.holds_slot =` assignments
/// (not `==` comparisons) or `.rejected +=` / `.shed +=` counter bumps —
/// without calling `trace_mark` in the same body. Returns the lines of
/// the offending `fn` tokens.
fn untraced_transition_lines(toks: &[Token]) -> Vec<usize> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("fn") && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
            let end = toks[i + 1..]
                .iter()
                .position(|t| t.is_ident("fn"))
                .map(|p| i + 1 + p)
                .unwrap_or(toks.len());
            let body = &toks[i..end];
            let transitions = body.windows(4).any(|w| {
                let assign = w[0].is_punct('.')
                    && (w[1].is_ident("state") || w[1].is_ident("holds_slot"))
                    && w[2].is_punct('=')
                    && !w[3].is_punct('=');
                let bump = w[0].is_punct('.')
                    && (w[1].is_ident("rejected") || w[1].is_ident("shed"))
                    && w[2].is_punct('+')
                    && w[3].is_punct('=');
                assign || bump
            });
            let traced = body.iter().any(|t| t.is_ident("trace_mark"));
            if transitions && !traced {
                out.push(toks[i].line);
            }
            i = end;
            continue;
        }
        i += 1;
    }
    out
}

/// L012 raw-write forms: `fs::write(`, `File::create(`, and
/// `OpenOptions::new(` path calls (also matched when spelled through a
/// longer path like `std::fs::write` — the final two segments decide).
fn raw_durable_write_lines(toks: &[Token]) -> Vec<usize> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let path_call = |head: &str, name: &str| {
            t.is_ident(head)
                && toks.get(i + 1).is_some_and(|p| p.is_punct(':'))
                && toks.get(i + 2).is_some_and(|p| p.is_punct(':'))
                && toks.get(i + 3).is_some_and(|n| n.is_ident(name))
                && toks.get(i + 4).is_some_and(|p| p.is_punct('('))
        };
        if path_call("fs", "write")
            || path_call("File", "create")
            || path_call("OpenOptions", "new")
        {
            out.push(t.line);
        }
    }
    out
}

/// Identifiers declared with a hash-based container type:
/// `name: HashMap<…>` / `name: HashSet<…>` / `name = HashMap::…`.
fn tracked_hash_idents(toks: &[Token]) -> BTreeSet<String> {
    let mut idents = BTreeSet::new();
    for w in toks.windows(4) {
        let decl_colon = w[0].kind == TokKind::Ident
            && w[1].is_punct(':')
            && (w[2].is_ident("HashMap") || w[2].is_ident("HashSet"))
            && w[3].is_punct('<');
        let decl_assign = w[0].kind == TokKind::Ident
            && w[1].is_punct('=')
            && (w[2].is_ident("HashMap") || w[2].is_ident("HashSet"))
            && w[3].is_punct(':');
        if decl_colon || decl_assign {
            idents.insert(w[0].text.clone());
        }
    }
    idents
}

/// Token lines where a tracked hash container is iterated directly:
/// order-revealing method calls (`x.values()`) or for-loop forms
/// (`for … in [&[mut]] [self.]x`).
fn unordered_iteration_lines(toks: &[Token], tracked: &BTreeSet<String>) -> Vec<usize> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !tracked.contains(&t.text) {
            continue;
        }
        // Method form: x . <order-revealing method> (
        if let (Some(dot), Some(m), Some(paren)) =
            (toks.get(i + 1), toks.get(i + 2), toks.get(i + 3))
        {
            if dot.is_punct('.')
                && m.kind == TokKind::Ident
                && L002_METHODS.contains(&m.text.as_str())
                && paren.is_punct('(')
            {
                out.push(t.line);
                continue;
            }
        }
        // For-loop form: `in` [& [mut]] [self .] x, not followed by `.`
        // (a trailing `.` means a method/field chain, judged above).
        let mut j = i;
        if j >= 2 && toks[j - 1].is_punct('.') && toks[j - 2].is_ident("self") {
            j -= 2;
        }
        while j >= 1 && (toks[j - 1].is_punct('&') || toks[j - 1].is_ident("mut")) {
            j -= 1;
        }
        let after_in = j >= 1 && toks[j - 1].is_ident("in");
        let chained = toks.get(i + 1).is_some_and(|n| n.is_punct('.'));
        if after_in && !chained {
            out.push(t.line);
        }
    }
    out
}

/// L006 unbounded-blocking forms: `thread::sleep`, bare `.recv()`, and
/// `.wait(` (the distinct idents `recv_timeout`/`try_recv`/`wait_timeout`
/// never match — an advantage of token matching over substrings).
fn unbounded_blocking_lines(toks: &[Token]) -> Vec<usize> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("thread")
            && toks.get(i + 1).is_some_and(|p| p.is_punct(':'))
            && toks.get(i + 2).is_some_and(|p| p.is_punct(':'))
            && toks.get(i + 3).is_some_and(|n| n.is_ident("sleep"))
        {
            out.push(t.line);
        }
        let prev_dot = i > 0 && toks[i - 1].is_punct('.');
        if prev_dot
            && t.is_ident("recv")
            && toks.get(i + 1).is_some_and(|p| p.is_punct('('))
            && toks.get(i + 2).is_some_and(|p| p.is_punct(')'))
        {
            out.push(t.line);
        }
        if prev_dot && t.is_ident("wait") && toks.get(i + 1).is_some_and(|p| p.is_punct('(')) {
            out.push(t.line);
        }
    }
    out
}

/// Lint a set of `(rel_path, source)` files: the per-file rules plus the
/// interprocedural L008 (panic reachability) and L009 (lock order) over
/// the whole set. This is also the fixture-test entry point — virtual
/// paths must use the `crates/<name>/src/…` shape to trigger the scoped
/// rules.
pub fn lint_files(files: &[(String, String)]) -> Vec<LintFinding> {
    let mut findings = Vec::new();
    for (path, src) in files {
        findings.extend(lint_source(path, src));
    }
    let graph = CallGraph::build(files);
    findings.extend(l008_findings(&graph));
    findings.extend(l009_findings(&graph));
    sort_findings(&mut findings);
    findings
}

/// L008 over a built call graph: panic sites reachable from the hot-path
/// roots.
fn l008_findings(graph: &CallGraph) -> Vec<LintFinding> {
    let mut roots = Vec::new();
    for (file, name) in L008_ROOTS {
        roots.extend(graph.find(file, name));
    }
    graph
        .reachable_panics(&roots, L008_EXEMPT)
        .into_iter()
        .map(|p| LintFinding {
            rule: Rule::L008,
            file: p.file,
            line: p.line,
            text: format!("{} reachable from hot path via {}", p.what, p.chain),
        })
        .collect()
}

/// L009 over a built call graph: lock-order analysis of `crates/server`.
fn l009_findings(graph: &CallGraph) -> Vec<LintFinding> {
    lockorder::analyze(graph, "crates/server/")
        .findings
        .into_iter()
        .map(|f| LintFinding {
            rule: Rule::L009,
            file: f.file,
            line: f.line,
            text: f.message,
        })
        .collect()
}

/// L013 over a workspace file set: `pub`/`pub(crate)` fns defined in the
/// production prefix of a `crates/*/src` file whose name appears in no
/// token of `files` except `fn NAME` definitions. `files` must hold every
/// source that may name them, tests and examples included.
pub fn unreferenced_pub_fns(files: &[(String, String)]) -> Vec<LintFinding> {
    let lexed: Vec<(&str, Vec<Token>)> = files
        .iter()
        .map(|(path, src)| (path.as_str(), lexer::lex(src)))
        .collect();
    let mut referenced = BTreeSet::new();
    for (_, toks) in &lexed {
        for (i, t) in toks.iter().enumerate() {
            if t.kind == TokKind::Ident && !(i > 0 && toks[i - 1].is_ident("fn")) {
                referenced.insert(t.text.as_str());
            }
        }
    }
    let mut out = Vec::new();
    for (path, toks) in &lexed {
        let in_src = path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split_once('/'))
            .is_some_and(|(_, rest)| rest.starts_with("src/"));
        if !in_src {
            continue;
        }
        for (line, name) in pub_fn_defs(lexer::production_prefix(toks)) {
            if !referenced.contains(name) {
                out.push(LintFinding {
                    rule: Rule::L013,
                    file: path.to_string(),
                    line,
                    text: format!("pub fn `{name}` is never named outside its definition"),
                });
            }
        }
    }
    out
}

/// `(line, name)` of every `pub [(…)] [const|async|unsafe]* fn NAME`.
fn pub_fn_defs(toks: &[Token]) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("pub") {
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|p| p.is_punct('(')) {
            while toks.get(j).is_some_and(|p| !p.is_punct(')')) {
                j += 1;
            }
            j += 1;
        }
        while toks
            .get(j)
            .is_some_and(|q| q.is_ident("const") || q.is_ident("async") || q.is_ident("unsafe"))
        {
            j += 1;
        }
        if let (Some(kw), Some(name)) = (toks.get(j), toks.get(j + 1)) {
            if kw.is_ident("fn") && name.kind == TokKind::Ident {
                out.push((kw.line, name.text.as_str()));
            }
        }
    }
    out
}

/// One lint finding as a machine-readable JSON object (stable key order,
/// mirroring [`crate::diag::diagnostic_json`] for the verifier side).
pub fn finding_json(f: &LintFinding) -> String {
    JVal::obj(vec![
        ("rule", f.rule.id().into()),
        ("title", f.rule.title().into()),
        ("file", f.file.as_str().into()),
        ("line", f.line.into()),
        ("text", f.text.as_str().into()),
    ])
    .render()
}

/// Deterministic finding order: (file, line, rule), exact repeats deduped.
pub fn sort_findings(findings: &mut Vec<LintFinding>) {
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.text).cmp(&(&b.file, b.line, b.rule, &b.text))
    });
    findings.dedup_by(|a, b| {
        a.rule == b.rule && a.file == b.file && a.line == b.line && a.text == b.text
    });
}

/// Lint every `crates/**/*.rs` file under `repo_root` (per-file rules),
/// plus the interprocedural rules over the production sources
/// (`crates/*/src/**`) and L013 over the whole workspace. Files are
/// visited in sorted order and findings sorted by (file, line, rule), so
/// the report is deterministic.
pub fn lint_tree(repo_root: &Path) -> io::Result<Vec<LintFinding>> {
    let mut files = Vec::new();
    collect_rs_files(&repo_root.join("crates"), &mut files)?;
    files.sort();
    let mut findings = Vec::new();
    let mut workspace = Vec::new();
    for path in files {
        let rel = repo_rel(repo_root, &path);
        let content = fs::read_to_string(&path)?;
        findings.extend(lint_source(&rel, &content));
        workspace.push((rel, content));
    }
    for dir in L013_REF_DIRS {
        let mut extra = Vec::new();
        collect_rs_files(&repo_root.join(dir), &mut extra)?;
        for path in extra {
            workspace.push((repo_rel(repo_root, &path), fs::read_to_string(&path)?));
        }
    }
    findings.extend(unreferenced_pub_fns(&workspace));
    let prod = callgraph::collect_prod_sources(repo_root)?;
    let graph = CallGraph::build(&prod);
    findings.extend(l008_findings(&graph));
    findings.extend(l009_findings(&graph));
    sort_findings(&mut findings);
    Ok(findings)
}

fn repo_rel(repo_root: &Path, path: &Path) -> String {
    path.strip_prefix(repo_root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// The repo root, located from this crate's manifest directory. Valid for
/// in-workspace builds (which is the only place the lints run).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l001_flags_unwrap_not_unwrap_or() {
        let src = "fn f() {\n    let x = y.unwrap();\n    let z = y.unwrap_or(0);\n}\n";
        let f = lint_source("crates/core/src/ops.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::L001);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn l001_skips_comments_and_tests() {
        let src = "// a.unwrap() in a comment\nfn f() {}\n#[cfg(test)]\nmod t { fn g() { x.unwrap(); } }\n";
        assert!(lint_source("crates/core/src/ops_agg.rs", src).is_empty());
    }

    #[test]
    fn l001_flags_panic_macros_not_strings() {
        let src = "fn f() { unreachable!(\"bad\"); }\nfn g() { let s = \"panicked: x\"; }\n";
        let f = lint_source("crates/core/src/ops_join.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn l001_is_blind_to_literals_by_construction() {
        // The substring matcher's false-positive class: patterns inside
        // strings, raw strings, and doc comments must produce nothing.
        let src = "/// Returns `x.unwrap()` semantics.\n\
                   fn f() -> String {\n\
                   let a = \"call .unwrap() then panic!(now)\";\n\
                   let b = r#\"x.expect(\"msg\")\"#;\n\
                   format!(\"{a}{b}\")\n\
                   }\n";
        assert!(lint_source("crates/core/src/ops.rs", src).is_empty());
    }

    #[test]
    fn l002_flags_tracked_map_iteration() {
        let src = "struct S { state: HashMap<u32, u32> }\n\
                   impl S {\n\
                   fn f(&self) { for (k, v) in &self.state { let _ = (k, v); } }\n\
                   fn g(&self) { let _ = self.state.values().count(); }\n\
                   fn h(&self) { let _ = self.state.get(&1); }\n\
                   }\n";
        let f = lint_source("crates/core/src/sink.rs", src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert_eq!(f[0].line, 3);
        assert_eq!(f[1].line, 4);
    }

    #[test]
    fn l002_respects_ident_boundaries() {
        let src = "struct S { state: HashMap<u32, u32>, mystate: Vec<u32> }\n\
                   fn f(s: &S) { for x in &s.mystate { let _ = x; } }\n";
        assert!(lint_source("crates/core/src/registry.rs", src).is_empty());
    }

    #[test]
    fn l003_flags_instant_outside_metrics_only() {
        let src = "use std::time::Instant;\n";
        assert_eq!(lint_source("crates/core/src/driver.rs", src).len(), 1);
        assert!(lint_source("crates/core/src/metrics.rs", src).is_empty());
        assert!(lint_source("crates/engine/src/expr.rs", src).is_empty());
    }

    #[test]
    fn l003_is_blind_to_instant_in_strings() {
        let src = "fn f() { let s = \"took Instant measurements\"; }\n";
        assert!(lint_source("crates/core/src/driver.rs", src).is_empty());
    }

    #[test]
    fn l004_flags_ungated_fault_hooks_only() {
        let ungated = "fn f(i: &FaultInjector) {\n    i.inject_worker_panic(b);\n}\n";
        let f = lint_source("crates/core/src/ops_agg.rs", ungated);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::L004);
        assert_eq!(f[0].line, 2);
        // A Some( gate up to two logical lines back (rustfmt wrapping)
        // legitimizes the hook.
        let gated = "fn f() {\n    if let Some(f) = faults {\n        f.inject_worker_panic(b);\n    }\n}\n";
        assert!(lint_source("crates/core/src/ops_agg.rs", gated).is_empty());
        // Hook bodies live in faults.rs; the rule exempts it.
        assert!(lint_source("crates/core/src/faults.rs", ungated).is_empty());
        // Other crates are out of scope.
        assert!(lint_source("crates/bench/src/lib.rs", ungated).is_empty());
    }

    #[test]
    fn l005_flags_spanless_process_bodies() {
        let bad = "impl ScanOp {\n\
                   fn process(&mut self, ctx: &mut BatchCtx<'_>) -> R {\n\
                   let out = BatchData::empty(s);\n\
                   Ok(out)\n\
                   }\n\
                   fn other(&self) {}\n\
                   }\n";
        let f = lint_source("crates/core/src/ops.rs", bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::L005);
        assert_eq!(f[0].line, 2);
        // Opening a span legitimizes the body.
        let good = bad.replace(
            "let out = BatchData::empty(s);",
            "let sp = ctx.op_span(\"Scan\");\nlet out = BatchData::empty(s);",
        );
        assert!(lint_source("crates/core/src/ops.rs", &good).is_empty());
        // The enum dispatcher (match self delegation) is exempt.
        let dispatch = "impl OnlineOp {\n\
                        pub fn process(&mut self, ctx: &mut BatchCtx<'_>) -> R {\n\
                        match self {\n\
                        OnlineOp::Scan(op) => op.process(ctx),\n\
                        }\n\
                        }\n\
                        }\n";
        assert!(lint_source("crates/core/src/ops_join.rs", dispatch).is_empty());
        // Other files are out of scope.
        assert!(lint_source("crates/core/src/driver.rs", bad).is_empty());
    }

    #[test]
    fn l006_flags_unbounded_blocking_in_server_hot_paths() {
        let src = "fn park(&self) {\n\
                   let g = self.work.wait(st);\n\
                   let x = rx.recv();\n\
                   thread::sleep(d);\n\
                   }\n";
        let f = lint_source("crates/server/src/scheduler.rs", src);
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f.iter().all(|x| x.rule == Rule::L006));
        let src2 = "fn f() { let x = rx.recv(); }\n";
        assert_eq!(lint_source("crates/server/src/session.rs", src2).len(), 1);
        // The bounded forms are sanctioned.
        let ok = "fn f() {\n\
                  let (g, _) = cv.wait_timeout(st, d);\n\
                  let r = handle.try_recv();\n\
                  let r2 = rx.recv_timeout(d);\n\
                  }\n";
        assert!(lint_source("crates/server/src/scheduler.rs", ok).is_empty());
        assert!(lint_source("crates/server/src/session.rs", ok).is_empty());
        // The TCP front-end (network blocking) is out of scope.
        let blocking = "fn f() { let g = cv.wait(st); }\n";
        assert!(lint_source("crates/server/src/tcp.rs", blocking).is_empty());
        assert!(lint_source("crates/core/src/driver.rs", blocking).is_empty());
    }

    #[test]
    fn l006_is_blind_to_recv_in_strings() {
        let src = "fn f() { let s = \"client .recv() stalled; cv.wait(st)\"; }\n";
        assert!(lint_source("crates/server/src/scheduler.rs", src).is_empty());
    }

    #[test]
    fn l006_is_allowlistable_for_the_park_core() {
        let allow = Allowlist::parse("L006 crates/server/src/scheduler.rs work.wait(");
        let hit = LintFinding {
            rule: Rule::L006,
            file: "crates/server/src/scheduler.rs".into(),
            line: 1,
            text: "st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);".into(),
        };
        assert!(allow.allows(&hit));
        let other = LintFinding {
            text: "let g = self.client.wait(st);".into(),
            ..hit.clone()
        };
        assert!(!allow.allows(&other), "only the park core is audited");
    }

    #[test]
    fn l007_flags_value_materialization_in_kernels() {
        let src = "fn gather(col: &Column) {\n\
                   let v = cells[i].clone();\n\
                   let owned = dict.to_vec();\n\
                   let s = name.to_owned();\n\
                   let ok = col.len();\n\
                   }\n";
        let f = lint_source("crates/relation/src/kernels/filter.rs", src);
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f.iter().all(|x| x.rule == Rule::L007));
        // Comments and test modules are exempt, like every lint.
        let commented = "// values.clone() for the reference path\nfn f() {}\n";
        assert!(lint_source("crates/relation/src/kernels/fold.rs", commented).is_empty());
        // Files outside kernels/ are out of scope.
        assert!(lint_source("crates/relation/src/columnar.rs", src).is_empty());
        assert!(lint_source("crates/core/src/driver.rs", src).is_empty());
    }

    #[test]
    fn l007_is_allowlistable_for_the_facade() {
        let allow = Allowlist::parse("L007 crates/relation/src/kernels/facade.rs .clone()");
        let hit = LintFinding {
            rule: Rule::L007,
            file: "crates/relation/src/kernels/facade.rs".into(),
            line: 1,
            text: "Batch::from_rows(rel.schema().clone(), rel.rows())".into(),
        };
        assert!(allow.allows(&hit));
        let other = LintFinding {
            file: "crates/relation/src/kernels/filter.rs".into(),
            ..hit.clone()
        };
        assert!(!allow.allows(&other), "only the facade is audited");
    }

    #[test]
    fn l011_flags_untraced_scheduler_transitions() {
        let bad = "fn admit(&self) {\n\
                   slot.state = SessionState::Running;\n\
                   slot.holds_slot = true;\n\
                   }\n\
                   fn reject(st: &mut State) {\n\
                   st.rejected += 1;\n\
                   st.shed += 1;\n\
                   }\n";
        let f = lint_source("crates/server/src/scheduler.rs", bad);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == Rule::L011));
        assert_eq!(f[0].line, 1, "finding anchors at the fn");
        assert_eq!(f[1].line, 5);
        // A trace_mark call in the same body legitimizes the transition.
        let good = "fn admit(&self, tracer: Option<&Tracer>) {\n\
                    trace_mark(tracer, \"sess.admit\", id, \"direct\");\n\
                    slot.state = SessionState::Running;\n\
                    }\n";
        assert!(lint_source("crates/server/src/scheduler.rs", good).is_empty());
        // Comparisons are reads, not transitions.
        let cmp = "fn check(&self) -> bool { slot.state == SessionState::Running }\n";
        assert!(lint_source("crates/server/src/scheduler.rs", cmp).is_empty());
        // trace_mark in one body cannot cover another body's transition.
        let split = "fn a(t: Option<&Tracer>) { trace_mark(t, \"x\", 0, \"\"); }\n\
                     fn b(slot: &mut Slot) { slot.state = SessionState::Done; }\n";
        let f = lint_source("crates/server/src/scheduler.rs", split);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
        // Other files are out of scope.
        assert!(lint_source("crates/server/src/session.rs", bad).is_empty());
        assert!(lint_source("crates/core/src/driver.rs", bad).is_empty());
    }

    #[test]
    fn l011_is_never_allowlistable() {
        let allow = Allowlist::parse("L011 crates/server/src/scheduler.rs fn admit");
        let hit = LintFinding {
            rule: Rule::L011,
            file: "crates/server/src/scheduler.rs".into(),
            line: 1,
            text: "fn admit(&self) {".into(),
        };
        assert!(!allow.allows(&hit), "L011 must ignore allowlist entries");
    }

    #[test]
    fn l012_flags_raw_durable_writes_outside_store() {
        let src = "fn save(p: &Path) {\n\
                   std::fs::write(p, b\"x\").unwrap();\n\
                   let f = File::create(p);\n\
                   let o = OpenOptions::new().append(true).open(p);\n\
                   let ok = fs::read_to_string(p);\n\
                   }\n";
        let f = lint_source("crates/server/src/durable.rs", src);
        let l012: Vec<_> = f.iter().filter(|x| x.rule == Rule::L012).collect();
        assert_eq!(l012.len(), 3, "{f:?}");
        assert_eq!(l012[0].line, 2);
        assert_eq!(l012[1].line, 3);
        assert_eq!(l012[2].line, 4);
        // The store crate IS the framed writer — exempt by definition.
        assert!(lint_source("crates/store/src/segment.rs", src)
            .iter()
            .all(|x| x.rule != Rule::L012));
        // Non-crate paths (scripts, tests dirs) are out of scope.
        assert!(lint_source("crates/bench/tests/smoke.rs", src).is_empty());
        // Reads and string literals never match.
        let clean = "fn load(p: &Path) {\n\
                     let s = fs::read_to_string(p);\n\
                     let msg = \"use fs::write( only in store\";\n\
                     }\n";
        assert!(lint_source("crates/bench/src/json.rs", clean)
            .iter()
            .all(|x| x.rule != Rule::L012));
    }

    #[test]
    fn l012_is_allowlistable_for_golden_updaters() {
        let allow = Allowlist::parse("L012 crates/bench/src/observe.rs fs::write(&golden_path");
        let hit = LintFinding {
            rule: Rule::L012,
            file: "crates/bench/src/observe.rs".into(),
            line: 1,
            text: "return match std::fs::write(&golden_path, exposition) {".into(),
        };
        assert!(allow.allows(&hit));
        let other = LintFinding {
            file: "crates/server/src/durable.rs".into(),
            text: "std::fs::write(&golden_path, bytes)".into(),
            ..hit.clone()
        };
        assert!(!allow.allows(&other), "only the audited updater is excused");
    }

    #[test]
    fn l004_is_never_allowlistable() {
        let allow = Allowlist::parse("L004 crates/core/src/ops.rs inject_worker_panic");
        let hit = LintFinding {
            rule: Rule::L004,
            file: "crates/core/src/ops.rs".into(),
            line: 1,
            text: "f.inject_worker_panic(b);".into(),
        };
        assert!(!allow.allows(&hit), "L004 must ignore allowlist entries");
    }

    #[test]
    fn allowlist_matches_rule_file_and_substring() {
        let allow =
            Allowlist::parse("# audited\nL002 crates/core/src/sink.rs self.state.values()\n");
        let hit = LintFinding {
            rule: Rule::L002,
            file: "crates/core/src/sink.rs".into(),
            line: 4,
            text: "let _ = self.state.values().count();".into(),
        };
        assert!(allow.allows(&hit));
        let miss = LintFinding {
            text: "for (k, v) in &self.state {".into(),
            ..hit.clone()
        };
        assert!(!allow.allows(&miss));
    }

    #[test]
    fn stale_allowlist_entries_are_l010_findings() {
        let allow = Allowlist::parse(
            "# header comment\n\
             L002 crates/core/src/sink.rs self.state.values()\n\
             L006 crates/server/src/scheduler.rs work.wait(\n",
        );
        let live = vec![LintFinding {
            rule: Rule::L002,
            file: "crates/core/src/sink.rs".into(),
            line: 4,
            text: "let _ = self.state.values().count();".into(),
        }];
        let stale = allow.stale_entries(&live);
        assert_eq!(stale.len(), 1, "{stale:?}");
        assert_eq!(stale[0].rule, Rule::L010);
        assert_eq!(stale[0].file, "scripts/lint-allow.txt");
        assert_eq!(stale[0].line, 3, "line of the dead entry");
        assert!(stale[0].text.contains("work.wait("));
        // L010 itself is never allowlistable.
        assert!(!allow.allows(&stale[0]));
    }

    #[test]
    fn lint_files_runs_interprocedural_rules() {
        // L008: the panic is in a helper, reachable from process().
        let files = vec![
            (
                "crates/core/src/ops.rs".to_string(),
                "fn process(&mut self) { helper_step(); }\n".to_string(),
            ),
            (
                "crates/core/src/util.rs".to_string(),
                "fn helper_step() { cfg_val.unwrap(); }\n".to_string(),
            ),
        ];
        let f = lint_files(&files);
        let l008: Vec<_> = f.iter().filter(|x| x.rule == Rule::L008).collect();
        assert_eq!(l008.len(), 1, "{f:?}");
        assert_eq!(l008[0].file, "crates/core/src/util.rs");
        assert!(
            l008[0].text.contains("process -> helper_step"),
            "{}",
            l008[0].text
        );
    }

    #[test]
    fn lint_findings_are_sorted_and_deduped() {
        let mut f = vec![
            LintFinding {
                rule: Rule::L003,
                file: "b.rs".into(),
                line: 2,
                text: "x".into(),
            },
            LintFinding {
                rule: Rule::L001,
                file: "a.rs".into(),
                line: 9,
                text: "y".into(),
            },
            LintFinding {
                rule: Rule::L003,
                file: "b.rs".into(),
                line: 2,
                text: "x".into(),
            },
        ];
        sort_findings(&mut f);
        assert_eq!(f.len(), 2);
        assert_eq!((f[0].file.as_str(), f[0].line), ("a.rs", 9));
        assert_eq!((f[1].file.as_str(), f[1].line), ("b.rs", 2));
    }
}
