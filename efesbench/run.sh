#!/usr/bin/env bash
# Build the release efes-serve binary and the benchmark from source, then
# run one benchmark invocation. Run from the repository root:
#
#   bash efesbench/run.sh --workload paper_mix --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet --manifest-path Cargo.toml --bin efes-serve >&2
cargo build --release --offline --quiet --manifest-path efesbench/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/efesbench" \
    --server "$CARGO_TARGET_DIR/release/efes-serve" \
    --trace-dir "$CARGO_TARGET_DIR/efesbench-trace" \
    "$@"
