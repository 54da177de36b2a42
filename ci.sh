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

run cargo build --release $OFFLINE
run cargo test --workspace -q $OFFLINE

# The benchmark is a package of its own (benchmark/, own lock file), so the
# workspace build above does not cover it. check.sh builds it offline and
# runs every workload at 1/20 size: a metric or workload name that drifted
# from BENCHMARK.json, or a failed result oracle, fails CI here.
run benchmark/check.sh

# Benchmarks must keep compiling even though CI doesn't time them. The
# micro-benches are named explicitly so a [[bench]] stanza typo can't
# silently drop them from the sweep.
run cargo bench --no-run $OFFLINE
run cargo bench --no-run $OFFLINE -p vdr-bench --bench scan_micro
run cargo bench --no-run $OFFLINE -p vdr-bench --bench transfer_micro
run cargo bench --no-run $OFFLINE -p vdr-bench --bench obs_overhead
run cargo bench --no-run $OFFLINE -p vdr-bench --bench train_micro
run cargo bench --no-run $OFFLINE -p vdr-bench --bench exchange_micro

# Every checked-in A/B artifact must be well-formed: each benchmark entry
# needs both a "before" and an "after" arm with non-empty runs_ms.
echo "==> validating BENCH_*.json artifacts"
python3 - <<'EOF'
import json, glob, sys

bad = []
files = sorted(glob.glob("BENCH_*.json"))
if not files:
    sys.exit("no BENCH_*.json artifacts found")
for path in files:
    with open(path) as f:
        doc = json.load(f)
    entries = {
        k: v
        for k, v in doc.items()
        if isinstance(v, dict) and ("before" in v or "after" in v)
    }
    for name, entry in entries.items():
        for arm in ("before", "after"):
            runs = entry.get(arm, {}).get("runs_ms")
            if not isinstance(runs, list) or not runs:
                bad.append(f"{path}: {name}.{arm}.runs_ms missing or empty")
    print(f"    {path}: {len(entries)} A/B entries ok" if not bad else f"    {path}: FAIL")
if bad:
    sys.exit("\n".join(bad))

# The compressed-execution scenarios are load-bearing: each must be present
# in BENCH_scan.json with both arms, per-run min/mean numbers, and an
# encoded ("after") best-min that beats the decoded ("before") arm.
scan = json.load(open("BENCH_scan.json"))
for name in (
    "scan_lowcard_rle_where_40k",
    "scan_sorted_rle_where_40k",
    "scan_dict_group_by_40k",
):
    entry = scan.get(name)
    if not isinstance(entry, dict):
        sys.exit(f"BENCH_scan.json: missing compressed-execution entry {name}")
    for arm in ("before", "after"):
        runs = entry.get(arm, {}).get("runs_ms")
        if not isinstance(runs, list) or not runs:
            sys.exit(f"BENCH_scan.json: {name}.{arm}.runs_ms missing or empty")
        for run in runs:
            if not ({"min", "mean"} <= set(run)):
                sys.exit(f"BENCH_scan.json: {name}.{arm} run lacks min/mean")
        if entry[arm].get("best_min_ms") != min(r["min"] for r in runs):
            sys.exit(f"BENCH_scan.json: {name}.{arm}.best_min_ms != min of runs")
    before, after = entry["before"]["best_min_ms"], entry["after"]["best_min_ms"]
    if after >= before:
        sys.exit(f"BENCH_scan.json: {name} encoded arm ({after}ms) does not beat decoded ({before}ms)")
    print(f"    BENCH_scan.json: {name} {before}ms -> {after}ms ok")

# The distributed-exchange scenarios are load-bearing: the co-located JOIN
# must beat the shuffled one, and the shuffled two-phase GROUP BY must beat
# the initiator-only merge on the modeled (sim_*) entries, which are the
# charge-symmetric same-build A/B. Wall-clock GROUP BY entries are recorded
# but not gated: the harness host's single core cannot express cross-node
# concurrency.
exch = json.load(open("BENCH_exchange.json"))
for name in (
    "exchange_join_colocated_vs_shuffled_40k",
    "sim_groupby_highcard_200k",
    "sim_groupby_distinct_200k",
):
    entry = exch.get(name)
    if not isinstance(entry, dict):
        sys.exit(f"BENCH_exchange.json: missing exchange entry {name}")
    for arm in ("before", "after"):
        runs = entry.get(arm, {}).get("runs_ms")
        if not isinstance(runs, list) or not runs:
            sys.exit(f"BENCH_exchange.json: {name}.{arm}.runs_ms missing or empty")
        for run in runs:
            if not ({"min", "mean"} <= set(run)):
                sys.exit(f"BENCH_exchange.json: {name}.{arm} run lacks min/mean")
        if entry[arm].get("best_min_ms") != min(r["min"] for r in runs):
            sys.exit(f"BENCH_exchange.json: {name}.{arm}.best_min_ms != min of runs")
    before, after = entry["before"]["best_min_ms"], entry["after"]["best_min_ms"]
    if after >= before:
        sys.exit(f"BENCH_exchange.json: {name} after ({after}ms) does not beat before ({before}ms)")
    print(f"    BENCH_exchange.json: {name} {before}ms -> {after}ms ok")

# BENCH_obs.json is a budget, not just a record: default-on (summary)
# instrumentation must cost < 2% on the best-min statistic for every
# measured hot path, or the observability layer has regressed.
obs = json.load(open("BENCH_obs.json"))
for name, entry in obs.items():
    if not isinstance(entry, dict) or "before" not in entry:
        continue
    pct = entry["overhead_min_pct"]
    if pct >= 2.0:
        sys.exit(f"BENCH_obs.json: {name} overhead_min_pct={pct} breaches the 2% budget")
    print(f"    BENCH_obs.json: {name} overhead_min_pct={pct} < 2% ok")

# The data-collector sampler has its own A/B (sampler_off vs sampler_on,
# both under summary verbosity): the per-tick cost must also stay < 2%.
sampler = obs.get("obs_scan_sampler_40k")
if not isinstance(sampler, dict) or "before" not in sampler or "after" not in sampler:
    sys.exit("BENCH_obs.json: missing sampler A/B entry obs_scan_sampler_40k")
for arm in ("before", "after"):
    runs = sampler[arm].get("runs_ms")
    if not isinstance(runs, list) or not runs:
        sys.exit(f"BENCH_obs.json: obs_scan_sampler_40k.{arm}.runs_ms missing or empty")
    if sampler[arm].get("best_min_ms") != min(r["min"] for r in runs):
        sys.exit(f"BENCH_obs.json: obs_scan_sampler_40k.{arm}.best_min_ms != min of runs")
EOF

# Smoke-run the figures binary: every figure generator must still execute
# and serialize. The artifact goes to a scratch path so a CI run never
# clobbers a checked-in BENCH_*.json. The same pass covers the scan-path
# counters: the "scan" figure runs a real cold/warm query and its report
# must show projection pushdown (cols_skipped) and cache hits firing.
SMOKE_OUT="$(mktemp)"
run cargo run --release $OFFLINE -p vdr-bench --bin figures -- --json --out "$SMOKE_OUT" >/dev/null
echo "==> checking scan counters in figures output"
python3 - "$SMOKE_OUT" <<'EOF'
import json, sys

doc = json.load(open(sys.argv[1]))
scan = next((f["figure"] for f in doc["figures"] if f["id"] == "scan"), None)
if scan is None:
    sys.exit("figures output has no 'scan' figure")
rows = {r["pass"]: r for r in scan["rows"]}
cold, warm = rows["cold"], rows["warm"]
if int(cold["exec.scan.cols_skipped"]) <= 0:
    sys.exit("cold scan skipped no columns: projection pushdown not firing")
if int(cold["scan.cache.miss"]) <= 0 or int(cold["scan.cache.hit"]) != 0:
    sys.exit("cold scan should only miss the decoded-block cache")
if int(warm["scan.cache.hit"]) <= 0 or int(warm["scan.cache.miss"]) != 0:
    sys.exit("warm scan should be served entirely from the decoded-block cache")
if warm["decode ns/value"] != "0 (cache)":
    sys.exit("warm scan decoded blocks despite cache hits")
print(f"    cold: cols_skipped={cold['exec.scan.cols_skipped']} miss={cold['scan.cache.miss']}; "
      f"warm: hit={warm['scan.cache.hit']} decode={warm['decode ns/value']}")
EOF
rm -f "$SMOKE_OUT"

# Smoke the v_monitor virtual schema: `SELECT * FROM v_monitor.metrics` must
# return live rows over plain SQL, and `PROFILE SELECT …` must return
# non-empty, query-id-attributed profile rows including the scan-cache
# counters. The same run covers the trace/event layer: v_monitor.events and
# v_monitor.slow_requests must return attributed rows, `TRACE <stmt>` must
# yield spans from >= 2 nodes under one query id, and the exported Chrome
# trace file must parse and show the same multi-node picture.
MONITOR_OUT="$(mktemp)"
echo "==> cargo run --release $OFFLINE -p vdr-bench --bin monitor_smoke"
cargo run --release $OFFLINE -p vdr-bench --bin monitor_smoke > "$MONITOR_OUT"
echo "==> checking v_monitor / PROFILE smoke output"
python3 - "$MONITOR_OUT" <<'EOF'
import json, sys

doc = json.load(open(sys.argv[1]))
if int(doc["metrics_rows"]) <= 0:
    sys.exit("SELECT FROM v_monitor.metrics returned no rows")
if int(doc["scan_query_id"]) <= 0:
    sys.exit("scan statement was not assigned a query id")
prof = doc["profile"]
if int(prof["query_id"]) <= int(doc["scan_query_id"]):
    sys.exit("PROFILE statement did not get a fresh (monotone) query id")
if int(prof["rows"]) <= 0 or int(prof["phase_rows"]) <= 0:
    sys.exit("PROFILE returned no phase rows")
if int(prof["scan_cache_rows"]) <= 0:
    sys.exit("PROFILE of a scan surfaced no scan.cache.* counters")
if not prof["all_rows_attributed"]:
    sys.exit("PROFILE rows not all attributed to the profiled query id")
vft = doc["vft"]
if int(vft["rows"]) <= 0:
    sys.exit("VFT smoke transfer moved no rows")
if float(vft["segment_rows"]) <= 0:
    sys.exit("vft.segment.rows counter missing from v_monitor.metrics after a transfer")
if float(vft["worker_rows"]) <= 0:
    sys.exit("vft.worker.rows counter missing from v_monitor.metrics after a transfer")
if float(vft["receive_frames"]) <= 0:
    sys.exit("vft.receive.frames counter missing: pipelined receive decoded nothing")
if int(doc["events_rows"]) <= 0:
    sys.exit("v_monitor.events returned no rows")
slow = doc["slow"]
if int(slow["rows"]) <= 0:
    sys.exit("v_monitor.slow_requests empty despite a 1ns slow threshold")
if not slow["all_rows_attributed"]:
    sys.exit("slow_requests rows missing query-id attribution")
train = doc["train"]
if int(train["rows"]) <= 0 or not train["converged"]:
    sys.exit("train-while-loading smoke did not fit a converged model")
if int(train["overlap_ns"]) <= 0 or float(train["metrics_overlap_ns"]) <= 0:
    sys.exit("ml.train.overlap_ns is zero: no training work overlapped the load")
if float(train["metrics_rows_per_sec_events"]) <= 0:
    sys.exit("ml.train.rows_per_sec histogram missing from v_monitor.metrics")
if int(train["metrics_deviance_rows"]) <= 0:
    sys.exit("ml.train.deviance gauge missing from v_monitor.metrics")
if int(train["profile_train_rows"]) <= 0 or not train["profile_has_overlap_counter"]:
    sys.exit("PROFILE of the train run surfaced no ml.train.* rows")
if not train["profile_all_rows_attributed"]:
    sys.exit("train PROFILE rows not all attributed to the train query id")
enc = doc["encoded"]
if int(enc["rows"]) <= 0 or int(enc["group_rows"]) <= 0:
    sys.exit("compressed-execution smoke queries returned no rows")
if float(enc["runs_skipped"]) <= 0:
    sys.exit("scan.encoded.runs_skipped is zero: RLE predicate fell back to per-row evaluation")
if float(enc["codes_tested"]) <= 0:
    sys.exit("scan.encoded.codes_tested is zero: dictionary predicate did not test codes")
if float(enc["late_materialized_rows"]) <= 0:
    sys.exit("scan.encoded.late_materialized_rows is zero: survivors were not late-materialized")
if int(enc["profile_encoded_rows"]) <= 0:
    sys.exit("PROFILE of an encoded scan surfaced no scan.encoded.* counters")
if not enc["profile_all_rows_attributed"]:
    sys.exit("encoded-scan PROFILE rows not all attributed to the profiled query id")
exch = doc["exchange"]
if int(exch["join_matches"]) != 3000:
    sys.exit(f"shuffled JOIN matched {exch['join_matches']} rows, want 3000")
if int(exch["groupby_rows"]) != 100:
    sys.exit(f"shuffled GROUP BY returned {exch['groupby_rows']} groups, want 100")
if float(exch["rows"]) <= 0 or float(exch["bytes"]) <= 0 or float(exch["frames"]) <= 0:
    sys.exit("exchange.rows/bytes/frames are zero: nothing crossed the exchange")
if float(exch["encoded_cols"]) <= 0:
    sys.exit("exchange.encoded_cols is zero: shuffle expanded RLE columns before shipping")
if float(exch["groupby_shuffled"]) <= 0:
    sys.exit("exec.groupby.shuffled is zero: two-phase GROUP BY merge did not shuffle")
if float(exch["join_output_rows"]) <= 0:
    sys.exit("exec.join.output_rows is zero: distributed join produced nothing")
ts = doc["trace_stmt"]
if int(ts["rows"]) <= 0 or int(ts["nodes"]) < 2:
    sys.exit("TRACE statement did not return spans from >= 2 nodes")
if not ts["all_rows_attributed"]:
    sys.exit("TRACE rows not all attributed to one query id")
tf = doc["trace_file"]
if not tf["parses"]:
    sys.exit("exported Chrome trace is not valid JSON")
if int(tf["events"]) <= 0:
    sys.exit("exported Chrome trace has no complete (ph=X) events")
if int(tf["max_nodes_one_query"]) < 2:
    sys.exit("exported trace never shows >= 2 nodes under a single query id")
if not tf["has_vft_span"]:
    sys.exit("exported trace has no vft.* span: transfer path not traced")
print(f"    metrics_rows={doc['metrics_rows']} profile: query_id={prof['query_id']} "
      f"rows={prof['rows']} (phase={prof['phase_rows']}, scan.cache={prof['scan_cache_rows']})")
print(f"    vft: rows={vft['rows']} segment_rows={vft['segment_rows']} "
      f"worker_rows={vft['worker_rows']} frames={vft['receive_frames']} "
      f"queue_ms={vft['queue_ms']:.3f}")
print(f"    train: query_id={train['query_id']} rows={train['rows']} "
      f"overlap_ns={train['overlap_ns']} profile_train_rows={train['profile_train_rows']}")
print(f"    encoded: rows={enc['rows']} groups={enc['group_rows']} "
      f"runs_skipped={enc['runs_skipped']} codes_tested={enc['codes_tested']} "
      f"late_rows={enc['late_materialized_rows']} profile_rows={enc['profile_encoded_rows']}")
print(f"    exchange: join_matches={exch['join_matches']} groups={exch['groupby_rows']} "
      f"rows={exch['rows']} bytes={exch['bytes']} frames={exch['frames']} "
      f"encoded_cols={exch['encoded_cols']} shuffled={exch['groupby_shuffled']}")
dc = doc["dc"]
if int(dc["metric_rows"]) <= 0:
    sys.exit("v_monitor.dc_metrics_by_tick returned no rows")
if int(dc["ticks"]) < 2:
    sys.exit("data collector advanced < 2 ticks over a multi-statement run")
if int(dc["nodes"]) < 2:
    sys.exit("dc_metrics_by_tick rows span < 2 nodes: per-node ring slicing broken")
if int(dc["resource_rows"]) <= 0 or float(dc["cpu_core_ns"]) <= 0:
    sys.exit("dc_resource_usage empty or recorded no cpu work")
if int(dc["statement_summaries"]) <= 0:
    sys.exit("dc_query_summaries has no statement-boundary ticks")
if int(dc["vft_summaries"]) <= 0 or int(dc["train_summaries"]) <= 0:
    sys.exit("dc_query_summaries missing vft/train completion ticks")
for key in ("metrics_node_names", "profiles_node_names", "containers_node_names"):
    if int(dc[key]) != 3:
        sys.exit(f"cluster-wide v_monitor: {key}={dc[key]}, want one node_name per node (3)")
print(f"    events_rows={doc['events_rows']} slow_rows={slow['rows']} "
      f"trace_stmt: rows={ts['rows']} nodes={ts['nodes']} "
      f"trace_file: events={tf['events']} max_nodes_one_query={tf['max_nodes_one_query']}")
print(f"    dc: rows={dc['metric_rows']} ticks={dc['ticks']} nodes={dc['nodes']} "
      f"summaries: stmt={dc['statement_summaries']} vft={dc['vft_summaries']} "
      f"train={dc['train_summaries']}")
EOF
rm -f "$MONITOR_OUT"

# The metrics export surface: dc_dump runs a small workload and writes
# Session::export_metrics() output; every line must parse as Prometheus
# exposition format (# TYPE comments + name{labels} value samples) and the
# vdr_dc_* series must be live.
DC_OUT="$(mktemp)"
run cargo run --release $OFFLINE -p vdr-bench --bin dc_dump -- "$DC_OUT"
echo "==> validating Prometheus export from dc_dump"
python3 - "$DC_OUT" <<'EOF'
import re, sys

sample = re.compile(r'^([A-Za-z_][A-Za-z0-9_]*)(\{[^}]*\})? (-?[0-9.eE+-]+|NaN|[+-]?Inf)$')
typed, series = set(), set()
for i, line in enumerate(open(sys.argv[1]), 1):
    line = line.rstrip("\n")
    if not line:
        continue
    if line.startswith("#"):
        parts = line.split()
        if len(parts) != 4 or parts[1] != "TYPE" or parts[3] not in ("counter", "gauge", "summary", "histogram"):
            sys.exit(f"line {i}: malformed TYPE comment: {line}")
        typed.add(parts[2])
        continue
    m = sample.match(line)
    if not m:
        sys.exit(f"line {i}: unparsable sample: {line}")
    name = m.group(1)
    if not name.startswith("vdr_"):
        sys.exit(f"line {i}: series {name} lacks the vdr_ namespace prefix")
    float(m.group(3))
    series.add(name)
for want in ("vdr_dc_ticks_total", "vdr_dc_samples", "vdr_dc_query_summaries", "vdr_dc_capacity"):
    if want not in series:
        sys.exit(f"export missing data-collector series {want}")
if "vdr_exec_scan_rows_total" not in series:
    sys.exit("export missing the scan counters the workload must have recorded")
untyped = {s for s in series if s not in typed
           and not s.rsplit("_", 1)[0] in typed
           and not any(s.startswith(t) for t in typed)}
if untyped:
    sys.exit(f"series without a TYPE comment: {sorted(untyped)[:5]}")
print(f"    {len(series)} series, {len(typed)} TYPE comments, dc series live")
EOF
rm -f "$DC_OUT"

echo "==> CI green"
