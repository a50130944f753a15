#!/usr/bin/env bash
# The one command of the benchmark: build the harness from source (offline)
# and hand it the arguments. See benchmark/README.md.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh --seed <n>            all six workloads, untraced then traced
#   benchmark/run.sh --smoke | compare <A> <B> | calibrate
set -euo pipefail

# Run from the root of the checkout, wherever the script is called from.
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Build outputs stay inside the checkout.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
