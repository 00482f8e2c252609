#!/usr/bin/env bash
# Builds the `serve` binary and the `roundbench` binary from source, then
# runs `roundbench` against `serve`. Run from the repository root:
#
#   bash roundbench/run.sh --workload rounds-hospital --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON
# result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$CARGO_TARGET_DIR" in
  /*) ;;
  *) CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR" ;;
esac

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p et-serve --bin serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$CARGO_TARGET_DIR/release/roundbench" \
  --serve "$CARGO_TARGET_DIR/release/serve" \
  --work-dir "$root/.bench_work" \
  "$@"
