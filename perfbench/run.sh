#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it with the given
# arguments from the directory it was called in, which must be the
# repository root:
#
#   bash perfbench/run.sh --workload units --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare PARENT_DIR CHANGE_DIR
#
# Cargo's progress goes to stderr; the last stdout line is the result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
