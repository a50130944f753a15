#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, release build, static analysis, full test
# suite. Everything runs offline (--offline); the workspace vendors its only
# external deps as path shims under shims/.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo build --release"
cargo build --workspace --release --offline

echo "== srclint (source lints, allowlist: scripts/lint-allow.txt)"
cargo run --release --offline -q -p iolap-analyze --bin srclint

echo "== verify-plans (static plan verifier, all built-in queries)"
IOLAP_SCALE=bench cargo run --release --offline -q -p iolap-bench --bin experiments -- verify-plans

echo "== analyze --smoke (source lints + allowlist staleness + plan-space model checker)"
cargo run --release --offline -q -p iolap-bench --bin experiments -- analyze --smoke

echo "== kernels --smoke (columnar kernels bit-identical to row references)"
IOLAP_SCALE=bench cargo run --release --offline -q -p iolap-bench --bin experiments -- kernels --smoke

echo "== faultstorm --smoke (seeded fault injection, Theorem-1 agreement)"
IOLAP_SCALE=bench cargo run --release --offline -q -p iolap-bench --bin experiments -- faultstorm --smoke

echo "== trace --smoke (trace schema golden: scripts/trace-schema.golden)"
cargo run --release --offline -q -p iolap-bench --bin experiments -- trace --smoke

echo "== serve --smoke (multi-tenant serving: solo-exactness, early stop, admission)"
cargo run --release --offline -q -p iolap-bench --bin experiments -- serve --smoke

echo "== shard --smoke (scale-out: sharded runs byte-identical, TCP probe, 2-shard storm)"
IOLAP_SCALE=bench cargo run --release --offline -q -p iolap-bench --bin experiments -- shard --smoke

echo "== observe --smoke (telemetry plane: exposition golden, trace/exposition determinism, overhead)"
cargo run --release --offline -q -p iolap-bench --bin experiments -- observe --smoke

echo "== durability --smoke (crash-point matrix byte-identical, append cells Theorem-1 exact)"
cargo run --release --offline -q -p iolap-bench --bin experiments -- durability --smoke

echo "== cargo test"
cargo test --workspace --release --offline -q

echo "== benchmark harness (frozen: must still compile, pass and run against this tree, untouched)"
cargo test --release --offline --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --smoke
git diff --exit-code -- benchmark BENCHMARK.json

echo "== tier-1 gate passed"
