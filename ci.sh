#!/usr/bin/env bash
# CI entry point: formatting, lints, release build, full test suite.
#
# The build environment may have no reachable crates registry (all
# third-party deps are vendored as in-tree shims under third_party/), so
# every cargo invocation defaults to --offline. Set VDR_CI_ONLINE=1 to let
# cargo touch the network.
set -euo pipefail
cd "$(dirname "$0")"

OFFLINE="--offline"
if [[ "${VDR_CI_ONLINE:-0}" == "1" ]]; then
  OFFLINE=""
fi

run() {
  echo "==> $*"
  "$@"
}

if cargo fmt --version >/dev/null 2>&1; then
  run cargo fmt --all -- --check
else
  echo "==> rustfmt not installed; skipping format check"
fi

if cargo clippy --version >/dev/null 2>&1; then
  run cargo clippy --workspace --all-targets $OFFLINE -- -D warnings
else
  echo "==> clippy not installed; skipping lints"
fi

# A deletion must not leave a dangling intra-doc link behind.
RUSTDOCFLAGS="-D warnings" run cargo doc --no-deps --workspace $OFFLINE

run cargo build --release $OFFLINE
run cargo test --workspace -q $OFFLINE
# The model bits the benchmark and the golden tests pin come from release
# code: run the ml kernels' bit-identity and property tests, and the root
# goldens (training, ledger, figures) and the block-cache story, in that
# profile.
run cargo test -p vdr-ml --release -q $OFFLINE
run cargo test --release -q $OFFLINE --test glm_golden --test train_golden --test loop_golden --test agg_differential --test figures_golden --test scan_cache --test figure3_workflow

# The benchmark is a package of its own (benchmark/, own lock file), so the
# workspace build above does not cover it. check.sh builds it offline and
# runs every workload at 1/20 size: a metric or workload name that drifted
# from BENCHMARK.json, or a failed result oracle, fails CI here.
run benchmark/check.sh

# Smoke-run the figures binary: every figure generator must still execute
# and serialize (it writes FIGURES.json, which is gitignored).
run cargo run --release $OFFLINE -p vdr-bench --bin figures >/dev/null

echo "==> CI green"
