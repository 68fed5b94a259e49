#!/usr/bin/env bash
# Builds the release `vcheck` binary from the repository's own workspace and
# this benchmark from its own, then runs the benchmark against that binary.
#
#   bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default `.bench_build`); generated trees go to `.bench_work`.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p valuecheck --bin vcheck >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/e2ebench" --vcheck "$CARGO_TARGET_DIR/release/vcheck" "$@"
