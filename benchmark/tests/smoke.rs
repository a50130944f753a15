//! `--smoke`: all six workloads at tiny scale, each in a child process,
//! untraced then traced; every declared metric must be printed.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

#[test]
fn smoke_prints_every_declared_metric_in_time() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let start = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .arg("--smoke")
        .current_dir(&root)
        .output()
        .expect("benchmark runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke failed:\n{}\n{}",
        text.lines().rev().take(5).collect::<Vec<_>>().join("\n"),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        start.elapsed() < Duration::from_secs(15),
        "smoke took {:?}",
        start.elapsed()
    );
    // Twelve result lines: six workloads, two passes.
    assert_eq!(
        text.lines()
            .filter(|l| l.starts_with("{\"correct\": true"))
            .count(),
        12
    );
    assert!(root.join("benchmark/out/trace-flat_local.jsonl").exists());
}
