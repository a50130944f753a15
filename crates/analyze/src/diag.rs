//! Structured diagnostics shared by the plan verifier and the source lints.

use iolap_core::json::JVal;
use std::fmt;

/// Every rule the analyzer can report. `V…` rules come from the static plan
/// verifier (independent re-derivation of the §4.1 uncertainty tags over the
/// rewritten online operator tree, cross-checked against the rewriter's
/// configuration); `L…` rules come from the offline source lints.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Select over uncertain attributes not configured for variation-range
    /// partitioning (§5), or spuriously configured over certain attributes.
    V001,
    /// Aggregate lineage configuration disagrees with the derived tags: an
    /// output that must be a lineage `Ref` (§6.1) would be emitted plain, or
    /// a deterministic output would be wrapped in a ref.
    V002,
    /// Projection mode disagrees with the derived column tags: a `Plain`
    /// mode would eagerly evaluate (and drop lineage from) an uncertain
    /// column, or a lineage-preserving mode wraps a certain column.
    V003,
    /// A strict operator consumes uncertain attributes: join/semi-join keys
    /// or group-by columns over uncertain (possibly thunked) values (§3.3).
    V004,
    /// Join/semi-join key expression invokes a nondeterministic UDF (§3.3:
    /// keys must be deterministic under sampling).
    V005,
    /// Result-scaling configuration disagrees with the derived stream tags:
    /// aggregate `scale_stream` or sink `stream_factor` mismatch (§2's
    /// `Q(D_i, m_i)` scaling).
    V006,
    /// Checkpoint-state mismatch (§4.2/§5.1): an operator whose state must
    /// survive recovery replay registers none, or a §4.2-stateless operator
    /// (PROJECT/UNION) claims checkpoint state.
    V007,
    /// Root annotation cross-check: the rewriter's recorded root tags
    /// disagree with the independently derived root tags.
    V008,
    /// The columnar aggregate fast path (the `FoldFragment` compiled in
    /// `ops_agg.rs`) must never be eligible when any aggregate argument is
    /// uncertain: the fast fold bypasses lineage-ref emission, so an
    /// uncertain argument folded fast would silently drop §6.1 lineage.
    V009,
    /// Recovery-closure survival (§5.1): along every root→streamed-scan
    /// spine, each operator whose state must survive replay registers
    /// checkpoint state and the streamed scan checkpoints its cursor, so
    /// a variation-range failure at any depth can be replayed.
    V010,
    /// No `unwrap()`/`expect()`/panic macros in `crates/core/src/ops*.rs`
    /// hot paths — errors must propagate as `EngineError`.
    L001,
    /// No direct `HashMap`/`HashSet` iteration in files whose iteration
    /// order can reach a `Sink` or `BatchReport` (determinism).
    L002,
    /// No `Instant::now()` outside `metrics.rs` — all timing goes through
    /// `iolap_core::metrics::Span`.
    L003,
    /// Fault-injection hooks (`inject_*` calls) outside
    /// `crates/core/src/faults.rs` must sit behind an armed-injector gate
    /// (a `Some(` match on the hook's line or within the two preceding
    /// logical lines), so no hook is reachable unless the config carries a
    /// `FaultPlan`. Deliberately *not* allowlistable: an ungated hook in a
    /// release binary is never an audited exception.
    L004,
    /// Instrumentation coverage: every `OnlineOp::process` implementation
    /// in the operator hot-path files must open a trace span
    /// (`ctx.op_span(`) so the causal trace tree never has silent gaps —
    /// a batch timeline with an untraced operator misattributes that
    /// operator's time to its parent.
    L005,
    /// No unbounded blocking in the serving layer's scheduler/admission hot
    /// paths (`crates/server/src/{scheduler,session}.rs`): no
    /// `thread::sleep`, no bare channel `recv()`, no `Condvar::wait`
    /// without timeout. A stalled driver must never be able to wedge a
    /// client or the admission path — every wait is deadline-bounded. The
    /// sole audited exception is the worker pool's park/unpark core
    /// (allowlisted in `scripts/lint-allow.txt`), which is woken on every
    /// state transition by construction.
    L006,
    /// No per-row `Value` materialization in the columnar kernel modules
    /// (`src/kernels/`): no `.clone()`, `.to_vec()`, or `.to_owned()` in
    /// kernel hot loops. Kernels operate on typed column vectors and
    /// selection indices; the sole audited exception is the row⇄batch
    /// facade (`kernels/facade.rs`, allowlisted), whose entire job is
    /// materialization.
    L007,
    /// Interprocedural panic reachability: no panic site in any function
    /// reachable over the call graph from the hot-path roots
    /// (`OnlineOp::process`, the driver batch/recovery loops, the
    /// scheduler worker turn). Closes L001's fixed-file-list gap.
    L008,
    /// Lock-order deadlock detection for `crates/server`: a cycle in the
    /// static lock-order graph, or re-acquiring an already-held lock
    /// (directly or via a callee), can deadlock two scheduler threads.
    L009,
    /// Allowlist staleness: a `scripts/lint-allow.txt` entry that matches
    /// no live finding is itself an error — suppressions must not outlive
    /// the code they excused. Not allowlistable.
    L010,
    /// Serving-layer instrumentation coverage (L005's discipline extended
    /// to the scheduler): every function in
    /// `crates/server/src/scheduler.rs` that transitions a session state,
    /// flips slot ownership, or bumps an admission/shed counter must emit
    /// a trace event (`trace_mark`) in the same body, so the telemetry
    /// plane never has a silent lifecycle transition. Not allowlistable:
    /// an unobservable transition defeats the telemetry contract by
    /// construction.
    L011,
    /// All durable writes go through `iolap-store`'s CRC-framed segment
    /// writer or atomic artifact replace: no raw `std::fs::write`,
    /// `File::create`, or `OpenOptions::new` on any persistence path
    /// outside `crates/store/`. A raw write has no torn-write detection
    /// and no crash-consistent rename, so a kill mid-write silently
    /// corrupts state the recovery path then trusts. Allowlistable only
    /// for audited golden-file updaters (explicitly opt-in, dev-only
    /// paths listed in `scripts/lint-allow.txt`).
    L012,
    /// Dead public surface: a `pub`/`pub(crate)` fn under `crates/*/src`
    /// whose name no other token in the workspace's Rust sources carries
    /// (crate `src`/`tests`/`benches`, `src/`, `tests/`, `examples/`,
    /// `benchmark/src`). Comments and doc mentions are not references.
    L013,
}

impl Rule {
    /// Stable rule identifier, e.g. `"V003"`.
    pub fn id(&self) -> &'static str {
        match self {
            Rule::V001 => "V001",
            Rule::V002 => "V002",
            Rule::V003 => "V003",
            Rule::V004 => "V004",
            Rule::V005 => "V005",
            Rule::V006 => "V006",
            Rule::V007 => "V007",
            Rule::V008 => "V008",
            Rule::V009 => "V009",
            Rule::V010 => "V010",
            Rule::L001 => "L001",
            Rule::L002 => "L002",
            Rule::L003 => "L003",
            Rule::L004 => "L004",
            Rule::L005 => "L005",
            Rule::L006 => "L006",
            Rule::L007 => "L007",
            Rule::L008 => "L008",
            Rule::L009 => "L009",
            Rule::L010 => "L010",
            Rule::L011 => "L011",
            Rule::L012 => "L012",
            Rule::L013 => "L013",
        }
    }

    /// Short human-readable rule name.
    pub fn title(&self) -> &'static str {
        match self {
            Rule::V001 => "select-partitioning-mismatch",
            Rule::V002 => "aggregate-lineage-mismatch",
            Rule::V003 => "projection-mode-mismatch",
            Rule::V004 => "strict-consumer-of-uncertainty",
            Rule::V005 => "nondeterministic-key",
            Rule::V006 => "scale-config-mismatch",
            Rule::V007 => "checkpoint-state-mismatch",
            Rule::V008 => "root-annotation-mismatch",
            Rule::V009 => "fast-path-uncertain-arg",
            Rule::V010 => "recovery-spine-closure",
            Rule::L001 => "no-panic-hot",
            Rule::L002 => "no-unordered-iter-output",
            Rule::L003 => "no-instant-outside-metrics",
            Rule::L004 => "fault-hook-ungated",
            Rule::L005 => "instrumentation-coverage",
            Rule::L006 => "no-unbounded-blocking",
            Rule::L007 => "no-row-materialization-in-kernels",
            Rule::L008 => "panic-reachable-hot",
            Rule::L009 => "lock-order-deadlock",
            Rule::L010 => "stale-allow-entry",
            Rule::L011 => "serving-instrumentation-coverage",
            Rule::L012 => "raw-durable-write",
            Rule::L013 => "pub-fn-unreferenced",
        }
    }

    /// All plan-verifier rules, in id order (for zero-filled counters).
    pub fn verifier_rules() -> &'static [Rule] {
        &[
            Rule::V001,
            Rule::V002,
            Rule::V003,
            Rule::V004,
            Rule::V005,
            Rule::V006,
            Rule::V007,
            Rule::V008,
            Rule::V009,
            Rule::V010,
        ]
    }

    /// All source-lint rules, in id order (for zero-filled counters).
    pub fn lint_rules() -> &'static [Rule] {
        &[
            Rule::L001,
            Rule::L002,
            Rule::L003,
            Rule::L004,
            Rule::L005,
            Rule::L006,
            Rule::L007,
            Rule::L008,
            Rule::L009,
            Rule::L010,
            Rule::L011,
            Rule::L012,
            Rule::L013,
        ]
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.id(), self.title())
    }
}

/// One plan-verifier finding.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Violated rule.
    pub rule: Rule,
    /// Operator path from the root, e.g. `Aggregate[id=0]/Select/Scan(sessions)`.
    pub path: String,
    /// Output column the finding is about, when column-specific.
    pub column: Option<usize>,
    /// What disagreed.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}", self.rule, self.path)?;
        if let Some(c) = self.column {
            write!(f, " col {c}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Deterministic diagnostic order: (path, column, rule, message), exact
/// repeats deduped. The path plays the role a file/line pair plays for
/// lint findings.
pub fn sort_diagnostics(diags: &mut Vec<Diagnostic>) {
    diags.sort_by(|a, b| {
        (&a.path, a.column, a.rule, &a.message).cmp(&(&b.path, b.column, b.rule, &b.message))
    });
    diags.dedup_by(|a, b| {
        a.rule == b.rule && a.path == b.path && a.column == b.column && a.message == b.message
    });
}

/// One diagnostic as a machine-readable JSON object (stable key order).
pub fn diagnostic_json(d: &Diagnostic) -> String {
    JVal::obj(vec![
        ("rule", d.rule.id().into()),
        ("title", d.rule.title().into()),
        ("path", d.path.as_str().into()),
        ("column", d.column.into()),
        ("message", d.message.as_str().into()),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_sorted_like_the_enum() {
        for rules in [Rule::verifier_rules(), Rule::lint_rules()] {
            let ids: Vec<&str> = rules.iter().map(|r| r.id()).collect();
            let mut sorted = ids.clone();
            sorted.sort();
            assert_eq!(
                ids, sorted,
                "enum order must match id order for Ord sorting"
            );
        }
    }

    #[test]
    fn sort_dedup_is_stable_and_exact() {
        let d = |rule, path: &str, msg: &str| Diagnostic {
            rule,
            path: path.into(),
            column: None,
            message: msg.into(),
        };
        let mut v = vec![
            d(Rule::V002, "b", "m"),
            d(Rule::V001, "a", "m"),
            d(Rule::V002, "b", "m"),
        ];
        sort_diagnostics(&mut v);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].path, "a");
    }

    #[test]
    fn diagnostic_json_escapes() {
        let d = Diagnostic {
            rule: Rule::V001,
            path: "Select/Scan".into(),
            column: Some(2),
            message: "quote \" and\nnewline".into(),
        };
        let j = diagnostic_json(&d);
        assert!(j.contains("\"rule\":\"V001\""));
        assert!(j.contains("\"column\":2"));
        assert!(j.contains("quote \\\" and\\nnewline"));
    }
}
