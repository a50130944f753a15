#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, release build, full test suite (which
# carries every correctness check: source lints and allowlist staleness,
# plan verifier, model checker, goldens, fault storms, crash matrix), and
# the frozen benchmark harness. Everything runs offline (--offline); the
# workspace vendors its only external deps as path shims under shims/.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo build --release"
cargo build --workspace --release --offline

echo "== cargo test"
cargo test --workspace --release --offline -q

echo "== benchmark harness (frozen: must still compile, pass and run against this tree, untouched)"
cargo test --release --offline --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --smoke
git diff --exit-code -- benchmark BENCHMARK.json

echo "== tier-1 gate passed"
