#!/bin/sh
# Smoke-check the benchmark: every workload at 1/20 size for two iterations,
# validated against the metric and workload names in BENCHMARK.json and
# against every result check. Exits non-zero on any mismatch or failed check.
# Takes a few seconds once built; meant to be called from ci.sh.
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --check
