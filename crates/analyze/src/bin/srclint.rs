//! `srclint` — offline source-lint gate.
//!
//! Scans the workspace sources for rules `L001`–`L013` (L010 aside),
//! subtracts the audited exceptions in `scripts/lint-allow.txt`, then
//! turns every allowlist entry that matched nothing into an `L010`
//! staleness finding. Output is sorted
//! and deduplicated, so runs are byte-for-byte reproducible.
//!
//! Exit codes: `0` clean, `1` findings, `2` internal error (unreadable
//! allowlist or scan failure). The same checks run inside `cargo test`
//! (`tests/lint_repo.rs`); this binary is the standalone report. Needs no
//! network and no third-party lint registry.

#![forbid(unsafe_code)]

use iolap_analyze::{lint_tree, repo_root, sort_findings, Allowlist, Rule};
use std::process::ExitCode;

const EXIT_FINDINGS: u8 = 1;
const EXIT_INTERNAL: u8 = 2;

fn main() -> ExitCode {
    let root = repo_root();
    let allow = match Allowlist::load(&root.join("scripts/lint-allow.txt")) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("srclint: cannot read allowlist: {e}");
            return ExitCode::from(EXIT_INTERNAL);
        }
    };
    let findings = match lint_tree(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("srclint: scan failed: {e}");
            return ExitCode::from(EXIT_INTERNAL);
        }
    };
    let total = findings.len();
    // Staleness (L010) is computed against the raw findings: an entry is
    // live iff it matches at least one finding the scan produced.
    let stale = allow.stale_entries(&findings);
    let (allowed, mut violations): (Vec<_>, Vec<_>) =
        findings.into_iter().partition(|f| allow.allows(f));
    violations.extend(stale);
    sort_findings(&mut violations);
    for f in &violations {
        println!("{f}");
    }
    let summary: Vec<String> = Rule::lint_rules()
        .iter()
        .map(|rule| {
            let n = violations.iter().filter(|f| f.rule == *rule).count();
            format!("{}={n}", rule.id())
        })
        .collect();
    eprintln!(
        "srclint: {total} finding(s), {} allowlisted, {} violation(s) [{}]",
        allowed.len(),
        violations.len(),
        summary.join(" ")
    );
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_FINDINGS)
    }
}
