#!/usr/bin/env bash
# Build the benchmark from source, then run it: what BENCHMARK.json's
# `command` names. Arguments go to psr-benchmark unchanged.
set -euo pipefail
cd "$(dirname "$0")/.."
# The driver sets CARGO_TARGET_DIR; cargo reads a relative one against the
# working directory, which is now the checkout root.
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
# Not exec'd: the benchmark reads its reaped children's resource usage, and
# a process that replaced this shell would inherit cargo's as its own.
"$target/release/psr-benchmark" "$@"
