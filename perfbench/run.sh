#!/usr/bin/env bash
# Build the serving daemons and the benchmark from this checkout, then run one
# benchmark invocation. Run from the repository root; arguments pass through:
#
#   bash perfbench/run.sh --workload embed_hot --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); run state and
# span files go to .bench_run/.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --manifest-path Cargo.toml -p gem-serve -p gem-router --bins >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/gem-perfbench" --bin-dir "$CARGO_TARGET_DIR/release" "$@"
