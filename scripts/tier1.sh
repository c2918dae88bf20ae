#!/usr/bin/env bash
# Tier-1 verification: the full test suite in a normal build, an
# observability export smoke check (pdw_cli trace/metrics JSON validated by
# tools/obs_check), a flight-recorder smoke (single-threaded pdw_cli run
# with --flight-out, stream validated and reconciled against the metrics
# registry by obs_check --flight), an ILP perf smoke (bench_ilp_solver
# --quick writing both a pdw-bench-1 JSON and a pdw-run-1 run-store record,
# gated by tools/pdw_report against the committed BENCH_ilp.json baseline;
# obs_check --bench still schema-validates and requires warm hits), a
# root-cut reconciliation (the same bench run's flight stream must report
# exactly ilp.cuts.added canonical cut_added events), a pdwd service smoke
# (a stdio request batch through the resident daemon, then a unix-socket
# daemon loaded by bench_pdwd --quick: warm-rate/speedup gates, counters
# reconciled by obs_check --pdwd, run record diffed against the frozen
# pdwd-quick-baseline label in BENCH_runs.jsonl by pdw_report), an online
# re-wash smoke (bench_rewash --quick replays seeded delta streams, asserts
# N_wash identity between incremental resolve and cold re-solve, gates a
# >= 5x speedup, pdw.resolve.* partition invariants reconciled by obs_check
# --resolve, run record diffed against the frozen rewash-quick-baseline
# label), the ILP numerics + JSON decoder tests under ASan+UBSan, then the
# parallel-runtime + obs + daemon-concurrency tests (determinism, route
# cache + epochs, tracing/metrics/logging, byte-identical concurrent pdwd
# plans, rescheduler thread-count determinism, invalidate coherence) under
# ThreadSanitizer.
#
#   scripts/tier1.sh            # all stages
#   PDW_SKIP_TSAN=1 scripts/tier1.sh   # skip the TSAN stage
#   PDW_SKIP_ASAN=1 scripts/tier1.sh   # skip the ASan/UBSan stage
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: build + full ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j
(cd build && ctest --output-on-failure -j)

echo "== tier-1: observability export smoke check =="
obs_dir=$(mktemp -d)
trap 'rm -rf "$obs_dir"' EXIT
./build/examples/pdw_cli --benchmark PCR --method pdw --threads 4 \
  --time-limit 2 --trace-out "$obs_dir/trace.json" \
  --metrics-out "$obs_dir/metrics.json"
# 4 lanes = 3 pool workers + the calling thread.
./build/tools/obs_check --trace "$obs_dir/trace.json" \
  --metrics "$obs_dir/metrics.json" --expect-workers 3

echo "== tier-1: flight recorder smoke (pdw_cli --flight-out) =="
# The flight stream's event counts must reconcile EXACTLY with the
# registry's ilp.bb.* / ilp.simplex.* counters: every MILP runs one
# best-bound search, so each solve block is the canonical lane.
./build/examples/pdw_cli --benchmark PCR --method pdw --threads 1 \
  --time-limit 2 --flight-out "$obs_dir/flight.jsonl" \
  --metrics-out "$obs_dir/flight_metrics.json"
./build/tools/obs_check --flight "$obs_dir/flight.jsonl" \
  --metrics "$obs_dir/flight_metrics.json"

echo "== tier-1: ILP perf smoke (bench_ilp_solver --quick + pdw_report) =="
# One quick run produces both the pdw-bench-1 document (schema-validated,
# warm dual path must have fired, engine label checked) and a pdw-run-1
# run-store record; pdw_report gates wall time, simplex iterations and
# nodes on the rows shared with the committed perf baseline (exit 1 =
# regression). The table2_* rows are node-capped, so their nodes and
# iterations are fixed by the work and only wall time measures speed.
./build/bench/bench_ilp_solver --json-out="$obs_dir/bench.json" \
  --run-store="$obs_dir/runs.jsonl" --label tier1-smoke --quick \
  --flight-out "$obs_dir/bench_flight.jsonl" \
  --metrics-out "$obs_dir/bench_metrics.json"
./build/tools/obs_check --bench "$obs_dir/bench.json" --expect-warm-hits \
  --expect-engine revised
./build/tools/pdw_report --store "$obs_dir/runs.jsonl" --label tier1-smoke \
  --against BENCH_ilp.json --max-regression 10% --min-wall 0.05

echo "== tier-1: root-cut reconciliation (bench flight vs registry) =="
# Cuts are on by default in the quick bench above; the root separation loop
# records one cut_added flight event per materialized cut into the
# canonical lane, and obs_check asserts the stream's canonical cut_added
# total equals the registry's ilp.cuts.added counter exactly (alongside the
# node_open / warm_miss reconciliations).
./build/tools/obs_check --flight "$obs_dir/bench_flight.jsonl" \
  --metrics "$obs_dir/bench_metrics.json"

echo "== tier-1: pdwd service smoke (stdio batch) =="
# A canned request batch piped through the resident daemon: two identical
# solves (the second must be served from the plan cache), a metrics scrape,
# then shutdown. The scraped pdw-resp-1 line feeds obs_check --pdwd, which
# reconciles the daemon's outcome-partition invariant and demands exactly 2
# completed solves with at least one warm.
printf '%s\n' \
  '{"schema":"pdw-req-1","type":"ping","id":"t1"}' \
  '{"schema":"pdw-req-1","type":"solve","id":"t2","benchmark":"Kinase act-1"}' \
  '{"schema":"pdw-req-1","type":"solve","id":"t3","benchmark":"Kinase act-1"}' \
  '{"schema":"pdw-req-1","type":"metrics","id":"t4"}' \
  '{"schema":"pdw-req-1","type":"shutdown","id":"t5"}' \
  | ./build/tools/pdwd --stdio --lanes 1 > "$obs_dir/pdwd_stdio.out"
grep '"type":"metrics"' "$obs_dir/pdwd_stdio.out" > "$obs_dir/pdwd_scrape.json"
./build/tools/obs_check --pdwd "$obs_dir/pdwd_scrape.json" \
  --expect-solves 2 --expect-warm-solves

echo "== tier-1: pdwd service smoke (socket bench + pdw_report) =="
# A real daemon on a unix socket, loaded by bench_pdwd over the wire:
# 3 passes x 2 clients over the quick Table-II mix, gated on warm service
# rate >= 0.9 and warm latency >= 2x better than cold p50. The run record
# is then diffed against the frozen pdwd-quick-baseline label committed in
# BENCH_runs.jsonl — warm_miss_rate is the deterministic gate (baseline 0,
# any miss is +inf); wall_seconds has a generous threshold plus a 5 s noise
# floor because cold solves are wall-clock noisy on a loaded machine.
./build/tools/pdwd --socket "$obs_dir/pdwd.sock" --lanes 2 \
  --metrics-out "$obs_dir/pdwd_metrics.json" &
pdwd_pid=$!
for _ in $(seq 100); do [[ -S "$obs_dir/pdwd.sock" ]] && break; sleep 0.1; done
./build/bench/bench_pdwd --quick --connect "$obs_dir/pdwd.sock" \
  --run-store "$obs_dir/pdwd_runs.jsonl" --label tier1-pdwd \
  --scrape-out "$obs_dir/pdwd_socket_scrape.json" --shutdown \
  --expect-warm-rate 0.9 --expect-warm-speedup 2
wait "$pdwd_pid"
./build/tools/obs_check --pdwd "$obs_dir/pdwd_socket_scrape.json" \
  --expect-warm-solves
cp BENCH_runs.jsonl "$obs_dir/pdwd_store.jsonl"
cat "$obs_dir/pdwd_runs.jsonl" >> "$obs_dir/pdwd_store.jsonl"
./build/tools/pdw_report --store "$obs_dir/pdwd_store.jsonl" \
  --label tier1-pdwd --against-label pdwd-quick-baseline \
  --metrics warm_miss_rate,wall_seconds --max-regression 300% --min-wall 5

echo "== tier-1: online re-wash smoke (bench_rewash --quick + pdw_report) =="
# A resident pipeline replays a seeded perturbation stream (op/task delays)
# per quick benchmark, solving each delta both incrementally
# (Pipeline::resolve) and cold from scratch. The bench itself asserts
# N_wash identity on every delta and gates a >= 5x speedup (latency or
# simplex iterations); obs_check --resolve reconciles the pdw.resolve.*
# partition invariants from the metrics scrape; pdw_report then diffs the
# run record against the frozen rewash-quick-baseline label committed in
# BENCH_runs.jsonl — nwash_mismatches is the deterministic gate (baseline
# 0, any mismatch is +inf); wall_seconds gets a generous threshold plus a
# noise floor because cold re-solves dominate wall time and are noisy.
./build/bench/bench_rewash --quick --expect-speedup 5 \
  --json-out "$obs_dir/rewash.json" \
  --run-store "$obs_dir/rewash_runs.jsonl" --label tier1-rewash \
  --metrics-out "$obs_dir/rewash_metrics.json"
./build/tools/obs_check --resolve "$obs_dir/rewash_metrics.json"
cp BENCH_runs.jsonl "$obs_dir/rewash_store.jsonl"
cat "$obs_dir/rewash_runs.jsonl" >> "$obs_dir/rewash_store.jsonl"
./build/tools/pdw_report --store "$obs_dir/rewash_store.jsonl" \
  --label tier1-rewash --against-label rewash-quick-baseline \
  --metrics nwash_mismatches,wall_seconds --max-regression 300% --min-wall 10

if [[ "${PDW_SKIP_ASAN:-0}" == "1" ]]; then
  echo "== tier-1: ASan/UBSan stage skipped (PDW_SKIP_ASAN=1) =="
else
  echo "== tier-1: ASan/UBSan build + ILP numerics / JSON decoder tests =="
  cmake -B build-asan -S . -DPDW_ASAN=ON >/dev/null
  cmake --build build-asan -j --target pdw_tests
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="print_stacktrace=1" \
    ./build-asan/tests/pdw_tests \
    --gtest_filter='BasisLu.*:BackendDifferential.*:BothEngines/*:DenseWarmPath.*:Simplex.*:Mip.*:WarmStart.*:Model.*:Presolve.*:LinExpr.*:ObsJson.*:ObsMetrics.*'
fi

if [[ "${PDW_SKIP_TSAN:-0}" == "1" ]]; then
  echo "== tier-1: TSAN stage skipped (PDW_SKIP_TSAN=1) =="
  exit 0
fi

echo "== tier-1: ThreadSanitizer build + parallel-runtime/obs tests =="
cmake -B build-tsan -S . -DPDW_TSAN=ON >/dev/null
cmake --build build-tsan -j --target pdw_tests
TSAN_OPTIONS="halt_on_error=1" \
  ./build-tsan/tests/pdw_tests \
  --gtest_filter='*ParallelDeterminism*:*IlpPathDeterminism*:RouteCache.*:ObsTrace.*:ObsMetrics.*:ObsLogging.*:PdwdConcurrency.*:RouteCacheEpoch.*:*ByteIdenticalAcrossThreadCounts*'

echo "== tier-1: OK =="
