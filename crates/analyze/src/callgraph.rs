//! Call-graph extraction over the lexed token stream.
//!
//! This is deliberately *name-based*: a call site `foo(` resolves to every
//! repo function named `foo`. That over-approximates dispatch (method calls
//! on different types with the same name merge), which is exactly the safe
//! direction for reachability-style lints — L008 may report a panic that is
//! not truly reachable, never the reverse. Names dominated by std traits
//! (`clone`, `next`, `fmt`, …) are skipped to keep the over-approximation
//! useful; the skip list is documented on [`SKIP_NAMES`].
//!
//! Per function we record three event kinds, in source order:
//! panic sites (`.unwrap(` / `.expect(` plus the panic-family macros),
//! lock acquisitions (`.lock(`), and call sites. Lock events also carry
//! the scope depth and guard bindings the lock-order analysis needs.

use crate::lexer::{self, TokKind, Token};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::{Path, PathBuf};

/// A function definition extracted from one source file.
#[derive(Debug)]
pub struct FnDef {
    /// Repo-relative path of the defining file.
    pub file: String,
    /// Function name (unqualified).
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Events inside the body, in source order.
    pub events: Vec<Event>,
}

/// One interesting site inside a function body.
#[derive(Debug)]
pub enum Event {
    /// A call site: `name(` or `name!(`.
    Call {
        /// Callee name.
        name: String,
        /// Variable the result is bound to (`let g = lock(&s)` → `g`),
        /// when syntactically obvious. Lets the lock-order analysis track
        /// guards returned by guard-constructor helpers.
        guard: Option<String>,
        /// 1-based line.
        line: usize,
    },
    /// A site that can panic: `.unwrap(`, `.expect(`, `panic!`, …
    Panic {
        /// What the site looks like (`".unwrap()"`, `"panic!"`, …).
        what: String,
        /// 1-based line.
        line: usize,
    },
    /// A `.lock(` acquisition.
    Lock {
        /// Lock identity: the last identifier of the receiver chain
        /// (`self.shared.state.lock()` → `state`).
        name: String,
        /// Variable the guard is bound to (`let g = x.lock()…` → `g`),
        /// when the binding is syntactically obvious.
        guard: Option<String>,
        /// Brace depth at the site, relative to the fn body (body = 1).
        depth: usize,
        /// 1-based line.
        line: usize,
    },
    /// Scope open (`{`) / close (`}`) markers, so held-lock sets can be
    /// released when the guard's scope ends.
    Open,
    /// See [`Event::Open`].
    Close,
    /// An explicit `drop(guard)` releasing a named guard early.
    Drop {
        /// The dropped variable name.
        var: String,
    },
}

/// Rust keywords that look like call sites when followed by `(`.
const KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "false", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "self", "Self", "static", "struct", "super", "trait", "true", "type", "unsafe",
    "use", "where", "while", "async", "await",
];

/// Call names never resolved to repo definitions: std-trait methods and
/// ubiquitous std constructors whose repo-local namesakes would otherwise
/// swallow the whole graph. `push` is deliberately *not* here — the repo's
/// `SelVec::push` sits on the columnar hot path and must stay visible.
pub const SKIP_NAMES: &[&str] = &[
    "clone",
    "fmt",
    "next",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "default",
    "from",
    "into",
    "try_from",
    "try_into",
    "deref",
    "deref_mut",
    "drop",
    "as_ref",
    "as_mut",
    "to_string",
    "to_owned",
    "borrow",
    "borrow_mut",
    "new",
    "len",
    "is_empty",
    "get",
    "get_mut",
    "insert",
    "remove",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "into_iter",
    "extend",
    "clear",
    "index",
    "index_mut",
    "write",
    "read",
    "flush",
    "min",
    "max",
    "abs",
    "sqrt",
    "clamp",
    "serialize",
    "deserialize",
    "call",
    "build",
    "run",
    "id",
    "name",
    "kind",
    // Iterator adapters and atomics/str methods whose repo-local namesakes
    // (`modelcheck::enumerate`, `sql::parse`, checkpoint `load`) would
    // otherwise graft unrelated subsystems onto the hot-path call graph.
    "enumerate",
    "parse",
    "load",
    "store",
];

/// Panic-family macro names. Plain `assert!` is deliberately excluded:
/// invariant assertions are an accepted contract in this codebase, while
/// the four below are unconditional aborts.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Extract all production-code function definitions from one file.
pub fn extract_fns(rel_path: &str, src: &str) -> Vec<FnDef> {
    let tokens = lexer::lex(src);
    let tokens = lexer::production_prefix(&tokens);
    let mut defs = collect_defs(rel_path, tokens);
    attribute_events(tokens, &mut defs);
    defs.into_iter().map(|d| d.def).collect()
}

struct PendingDef {
    def: FnDef,
    /// Token index of the body's opening `{` (exclusive of the brace).
    body_start: usize,
    /// Token index one past the body's closing `}`.
    body_end: usize,
}

/// Find every `fn NAME … { … }` and its body token range. Signatures can
/// contain `(`/`[`-nested braces only inside closures in const generics,
/// which the repo does not use; the body is the first `{` at zero
/// paren/bracket depth after the name, or none when a `;` arrives first
/// (trait method declarations).
fn collect_defs(rel_path: &str, tokens: &[Token]) -> Vec<PendingDef> {
    let mut defs = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_ident("fn") && tokens.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
            let name = tokens[i + 1].text.clone();
            let line = tokens[i].line;
            let mut j = i + 2;
            let mut paren = 0i32;
            let body_start = loop {
                match tokens.get(j) {
                    None => break None,
                    Some(t) if t.is_punct('(') || t.is_punct('[') => paren += 1,
                    Some(t) if t.is_punct(')') || t.is_punct(']') => paren -= 1,
                    Some(t) if paren == 0 && t.is_punct('{') => break Some(j),
                    Some(t) if paren == 0 && t.is_punct(';') => break None,
                    _ => {}
                }
                j += 1;
            };
            if let Some(start) = body_start {
                let mut depth = 1i32;
                let mut k = start + 1;
                while k < tokens.len() && depth > 0 {
                    if tokens[k].is_punct('{') {
                        depth += 1;
                    } else if tokens[k].is_punct('}') {
                        depth -= 1;
                    }
                    k += 1;
                }
                defs.push(PendingDef {
                    def: FnDef {
                        file: rel_path.to_string(),
                        name,
                        line,
                        events: Vec::new(),
                    },
                    body_start: start + 1,
                    body_end: k.saturating_sub(1),
                });
                i = start + 1;
                continue;
            }
        }
        i += 1;
    }
    defs
}

/// Walk the token stream once and attribute each event to the innermost
/// enclosing function (fn bodies nest via closures and nested fns).
fn attribute_events(tokens: &[Token], defs: &mut [PendingDef]) {
    for idx in 0..defs.len() {
        let (start, end) = (defs[idx].body_start, defs[idx].body_end);
        // Innermost = no other def's body range strictly inside covers i.
        let inner: Vec<(usize, usize)> = defs
            .iter()
            .map(|d| (d.body_start, d.body_end))
            .filter(|&(s, e)| s > start && e <= end && !(s == start && e == end))
            .collect();
        let covered = |i: usize| inner.iter().any(|&(s, e)| i >= s && i < e);
        let mut depth = 1usize;
        let mut i = start;
        while i < end {
            if covered(i) {
                i += 1;
                continue;
            }
            let t = &tokens[i];
            if t.is_punct('{') {
                depth += 1;
                defs[idx].def.events.push(Event::Open);
            } else if t.is_punct('}') {
                depth = depth.saturating_sub(1);
                defs[idx].def.events.push(Event::Close);
            } else if t.kind == TokKind::Ident {
                if let Some(ev) = classify_ident(tokens, i, depth, end) {
                    defs[idx].def.events.push(ev);
                }
            }
            i += 1;
        }
    }
}

fn classify_ident(tokens: &[Token], i: usize, depth: usize, end: usize) -> Option<Event> {
    let t = &tokens[i];
    let next = tokens.get(i + 1).filter(|_| i + 1 < end);
    let prev_dot = i > 0 && tokens[i - 1].is_punct('.');
    match next {
        Some(n) if n.is_punct('(') => {
            if prev_dot && (t.text == "unwrap" || t.text == "expect") {
                return Some(Event::Panic {
                    what: format!(".{}()", t.text),
                    line: t.line,
                });
            }
            if prev_dot && t.text == "lock" {
                // Receiver chain: walk idents/dots leftwards; skip when the
                // receiver is a call result `( … ).lock()` — identity unknown.
                if i >= 2 && tokens[i - 2].kind == TokKind::Ident {
                    let name = tokens[i - 2].text.clone();
                    return Some(Event::Lock {
                        name,
                        guard: guard_binding(tokens, i),
                        depth,
                        line: t.line,
                    });
                }
                return None;
            }
            if t.text == "drop" && !prev_dot {
                if let Some(v) = tokens.get(i + 2).filter(|v| v.kind == TokKind::Ident) {
                    if tokens.get(i + 3).is_some_and(|c| c.is_punct(')')) {
                        return Some(Event::Drop {
                            var: v.text.clone(),
                        });
                    }
                }
            }
            if KEYWORDS.contains(&t.text.as_str()) {
                return None;
            }
            Some(Event::Call {
                name: t.text.clone(),
                guard: guard_binding(tokens, i),
                line: t.line,
            })
        }
        Some(n) if n.is_punct('!') && tokens.get(i + 2).is_some_and(|p| p.is_punct('(')) => {
            if PANIC_MACROS.contains(&t.text.as_str()) {
                return Some(Event::Panic {
                    what: format!("{}!", t.text),
                    line: t.line,
                });
            }
            None
        }
        _ => None,
    }
}

/// For a `.lock()` at token index `i` (the `lock` ident), find the guard
/// variable when the statement is `let [mut] NAME = chain.lock()…`.
fn guard_binding(tokens: &[Token], i: usize) -> Option<String> {
    // Scan backwards across the receiver chain / path to the statement head.
    let mut j = i;
    while j >= 2
        && (tokens[j - 1].is_punct('.')
            || tokens[j - 1].is_punct(':')
            || tokens[j - 1].kind == TokKind::Ident)
    {
        j -= 1;
    }
    // Optional `&`/`*` prefixes.
    while j >= 1 && (tokens[j - 1].is_punct('&') || tokens[j - 1].is_punct('*')) {
        j -= 1;
    }
    if j >= 2 && tokens[j - 1].is_punct('=') {
        let mut k = j - 1;
        if k >= 1 && tokens[k - 1].is_ident("mut") {
            k -= 1;
        }
        if k >= 2 && tokens[k - 2].is_ident("let") && tokens[k - 1].kind == TokKind::Ident {
            return Some(tokens[k - 1].text.clone());
        }
        if k >= 3
            && tokens[k - 3].is_ident("let")
            && tokens[k - 2].is_ident("mut")
            && tokens[k - 1].kind == TokKind::Ident
        {
            return Some(tokens[k - 1].text.clone());
        }
    }
    None
}

/// The whole-repo call graph: every production fn in `crates/*/src/**`.
pub struct CallGraph {
    /// All function definitions, indexed densely.
    pub fns: Vec<FnDef>,
    /// name → indices of fns with that name.
    pub by_name: BTreeMap<String, Vec<usize>>,
}

/// A panic site reachable from a root, with the call chain that reaches it.
#[derive(Debug)]
pub struct ReachablePanic {
    /// File of the panic site.
    pub file: String,
    /// 1-based line of the panic site.
    pub line: usize,
    /// The site (`".unwrap()"`, `"panic!"`, …).
    pub what: String,
    /// Human-readable chain `root -> … -> fn` that reaches the site.
    pub chain: String,
}

impl CallGraph {
    /// Build the graph from `(rel_path, source)` pairs.
    pub fn build(files: &[(String, String)]) -> CallGraph {
        let mut fns = Vec::new();
        for (path, src) in files {
            fns.extend(extract_fns(path, src));
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
        }
        CallGraph { fns, by_name }
    }

    /// Indices of fns named `name` defined in a file whose path ends with
    /// `file_suffix`.
    pub fn find(&self, file_suffix: &str, name: &str) -> Vec<usize> {
        self.by_name
            .get(name)
            .map(|v| {
                v.iter()
                    .copied()
                    .filter(|&i| self.fns[i].file.ends_with(file_suffix))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Callee fn indices of fn `i`, applying the skip list and resolving
    /// by name across the whole repo.
    pub fn callees(&self, i: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for ev in &self.fns[i].events {
            if let Event::Call { name, .. } = ev {
                if SKIP_NAMES.contains(&name.as_str()) {
                    continue;
                }
                if let Some(targets) = self.by_name.get(name) {
                    out.extend(targets.iter().copied());
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// BFS from `roots`, returning every panic site inside a reachable fn
    /// with its (shortest-hop) call chain. `exempt_file_suffix` names files
    /// whose panic *sites* are ignored (deliberate fault injection whose
    /// panics are contained by `catch_unwind`); their calls still traverse.
    pub fn reachable_panics(
        &self,
        roots: &[usize],
        exempt_file_suffix: &[&str],
    ) -> Vec<ReachablePanic> {
        let mut pred: BTreeMap<usize, Option<usize>> = BTreeMap::new();
        let mut queue = VecDeque::new();
        for &r in roots {
            if let std::collections::btree_map::Entry::Vacant(e) = pred.entry(r) {
                e.insert(None);
                queue.push_back(r);
            }
        }
        let mut order = Vec::new();
        while let Some(i) = queue.pop_front() {
            order.push(i);
            for c in self.callees(i) {
                if let std::collections::btree_map::Entry::Vacant(e) = pred.entry(c) {
                    e.insert(Some(i));
                    queue.push_back(c);
                }
            }
        }
        let mut out = Vec::new();
        let mut seen = BTreeSet::new();
        for &i in &order {
            let f = &self.fns[i];
            if exempt_file_suffix.iter().any(|s| f.file.ends_with(s)) {
                continue;
            }
            for ev in &f.events {
                if let Event::Panic { what, line } = ev {
                    if !seen.insert((f.file.clone(), *line, what.clone())) {
                        continue;
                    }
                    out.push(ReachablePanic {
                        file: f.file.clone(),
                        line: *line,
                        what: what.clone(),
                        chain: self.chain_to(&pred, i),
                    });
                }
            }
        }
        out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        out
    }

    fn chain_to(&self, pred: &BTreeMap<usize, Option<usize>>, mut i: usize) -> String {
        let mut names = vec![self.fns[i].name.clone()];
        while let Some(Some(p)) = pred.get(&i) {
            names.push(self.fns[*p].name.clone());
            i = *p;
        }
        names.reverse();
        names.join(" -> ")
    }
}

/// Collect `(rel_path, contents)` for every production source file under
/// `crates/*/src/`, sorted by path for determinism.
pub fn collect_prod_sources(repo_root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    let crates_dir = repo_root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            walk(&src, repo_root, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, repo_root: &Path, out: &mut Vec<(String, String)>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            walk(&p, repo_root, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            let rel = p
                .strip_prefix(repo_root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, std::fs::read_to_string(&p)?));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_fns_and_calls() {
        let src = "fn a() { b(); c.unwrap(); }\nfn b() { panic!(\"boom\"); }\n";
        let defs = extract_fns("crates/x/src/lib.rs", src);
        assert_eq!(defs.len(), 2);
        assert_eq!(defs[0].name, "a");
        let calls: Vec<_> = defs[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Call { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(calls, ["b"]);
        assert!(defs[0]
            .events
            .iter()
            .any(|e| matches!(e, Event::Panic { what, .. } if what == ".unwrap()")));
        assert!(defs[1]
            .events
            .iter()
            .any(|e| matches!(e, Event::Panic { what, .. } if what == "panic!")));
    }

    #[test]
    fn panic_three_calls_deep_is_reachable() {
        let files = vec![(
            "crates/x/src/lib.rs".to_string(),
            "fn root() { mid(); }\nfn mid() { deep(); }\nfn deep() { helper_val.unwrap(); }\n"
                .to_string(),
        )];
        let g = CallGraph::build(&files);
        let roots = g.find("lib.rs", "root");
        let panics = g.reachable_panics(&roots, &[]);
        assert_eq!(panics.len(), 1);
        assert_eq!(panics[0].chain, "root -> mid -> deep");
        assert_eq!(panics[0].line, 3);
    }

    #[test]
    fn unreachable_panics_are_not_reported() {
        let files = vec![(
            "crates/x/src/lib.rs".to_string(),
            "fn root() { safe(); }\nfn safe() {}\nfn island() { x.unwrap(); }\n".to_string(),
        )];
        let g = CallGraph::build(&files);
        let roots = g.find("lib.rs", "root");
        assert!(g.reachable_panics(&roots, &[]).is_empty());
    }

    #[test]
    fn exempt_files_traverse_but_do_not_report() {
        let files = vec![
            (
                "crates/x/src/lib.rs".to_string(),
                "fn root() { inject(); }\n".to_string(),
            ),
            (
                "crates/x/src/faults.rs".to_string(),
                "fn inject() { deeper(); panic!(\"fault\"); }\nfn deeper() { v.unwrap(); }\n"
                    .to_string(),
            ),
        ];
        let g = CallGraph::build(&files);
        let roots = g.find("lib.rs", "root");
        let panics = g.reachable_panics(&roots, &["faults.rs"]);
        assert!(panics.is_empty(), "both sites live in the exempt file");
    }

    #[test]
    fn lock_sites_record_identity_and_guard() {
        let src = "fn f(&self) { let mut st = self.shared.state.lock().unwrap(); drop(st); }\n";
        let defs = extract_fns("crates/server/src/x.rs", src);
        let lock = defs[0]
            .events
            .iter()
            .find_map(|e| match e {
                Event::Lock { name, guard, .. } => Some((name.clone(), guard.clone())),
                _ => None,
            })
            .unwrap();
        assert_eq!(lock.0, "state");
        assert_eq!(lock.1.as_deref(), Some("st"));
        assert!(defs[0]
            .events
            .iter()
            .any(|e| matches!(e, Event::Drop { var } if var == "st")));
    }
}
