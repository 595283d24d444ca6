#!/usr/bin/env bash
# Build the serving daemon and the benchmark from source, then run one
# workload:
#
#   bash e2ebench/run.sh --workload wrap-corpus|serve-crawl|stream-crawl \
#       --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build). The last line of standard output is the
# result object; everything before it is the run's accounting.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p objectrunner-serve --bin objectrunner-serve
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml
exec "$target/release/e2ebench" --serve-bin "$target/release/objectrunner-serve" "$@"
