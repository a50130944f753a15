//! `iolap-analyze` — static analysis for the iOLAP reproduction.
//!
//! Four prongs, one diagnostic vocabulary (`Rule`):
//!
//! 1. **Plan verifier** (`verify`): an abstract interpreter over the
//!    rewritten online operator tree that re-derives the §4.1 uncertainty
//!    tags (`u#`, `uA`) from first principles — deliberately *without*
//!    reusing `iolap-core::annotate` — and cross-checks everything the
//!    rewriter configured: variation-range partitioning on selects (§5),
//!    lineage refs on uncertain aggregate outputs (§6.1), no strict
//!    consumers of folded-lineage thunks, deterministic join/group keys
//!    (§3.3), stream-scaling factors (§2), checkpoint-state registration
//!    (§4.2/§5.1), columnar fast-path eligibility, and recovery-spine
//!    closure. Rules `V001`–`V010`.
//! 2. **Source lints** (`lint_tree` / the `srclint` binary): token-stream
//!    checks over `crates/**/*.rs` built on a hand-rolled lexer
//!    ([`lexer`]) — no panics in operator hot paths, no order-sensitive
//!    hash iteration on report-reaching paths, no clock reads outside the
//!    metrics layer, gated fault hooks, trace-span coverage, bounded
//!    blocking, and kernel-loop materialization. Rules `L001`–`L007`, with
//!    an audited-exception allowlist at `scripts/lint-allow.txt` whose
//!    stale entries are themselves findings (`L010`).
//! 3. **Interprocedural analyses** over the same token stream: a
//!    name-resolved call graph ([`callgraph`]) drives panic reachability
//!    from the hot-path roots (`L008`) and a lock-order deadlock detector
//!    for the serving layer ([`lockorder`], `L009`).
//! 4. **Plan-space model checker** ([`modelcheck`]): bounded exhaustive
//!    enumeration of annotated operator trees, each run through the real
//!    rewriter + verifier and cross-checked against an independent
//!    uncertainty model, with mutation probes over every accepted plan.
//!
//! Debug builds of `iolap-core::IolapDriver` consult an installed verifier
//! before executing batch 0; call [`install`] (the bench workloads do) to
//! activate it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod callgraph;
pub mod diag;
pub mod lexer;
pub mod lint;
pub mod lockorder;
pub mod modelcheck;
pub mod tags;
pub mod verify;

pub use callgraph::CallGraph;
pub use diag::{sort_diagnostics, Diagnostic, Rule};
pub use lint::{
    finding_json, lint_files, lint_source, lint_tree, repo_root, sort_findings,
    unreferenced_pub_fns, Allowlist, LintFinding,
};
pub use modelcheck::ModelCheckReport;
pub use tags::{derive, expr_uncertain, Tags};
pub use verify::{install, verify, verify_planned, verify_report};
