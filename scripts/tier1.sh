#!/usr/bin/env bash
# Tier-1 verification: the full build + test cycle, then a ThreadSanitizer
# build of the parallel execution layer's own suites (thread-pool stress and
# per-algorithm determinism).  Run from the repository root:
#
#     scripts/tier1.sh [jobs]
#
# The TSan stage is what catches scheduling races the plain suite can miss;
# it rebuilds into build-tsan/ so the primary build tree stays untouched.
set -euo pipefail

jobs=${1:-$(nproc)}
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

echo "== tier-1: build =="
cmake -B build -S . -DRECTPART_WERROR=ON >/dev/null
cmake --build build -j "$jobs"

echo "== tier-1: ctest =="
# The full suite, label `verdict` included: figure_verdicts_jagged runs
# fig07 and fig08 at default scale and fails on any "# reproduced: NO".
(cd build && ctest --output-on-failure -j "$jobs")

echo "== tier-1: observability (counters + trace export) =="
# One real bench run with both observability sinks active; both output files
# must be machine-valid JSON (Perfetto loads the trace, the BENCH records
# carry per-(workload, width) work counters).  Validation uses the in-tree
# benchstat binary — tier-1 has no Python dependency.
obs_dir=$(mktemp -d)
(cd "$obs_dir" &&
 "$root"/build/bench/micro_threads --n=256 --m=64 --reps=1 \
   --trace=trace.json --counters >/dev/null)
"$root"/build/tools/benchstat --validate "$obs_dir/trace.json" \
  "$obs_dir/BENCH_micro_threads.json"
grep -q '"counters"' "$obs_dir/BENCH_micro_threads.json"
grep -q '"traceEvents"' "$obs_dir/trace.json"
rm -rf "$obs_dir"

echo "== tier-1: bench gate (deterministic counter baselines) =="
# Pinned-seed single-thread reruns of micro_core and fig06 diffed against
# bench/baselines/ — exact equality on scheduling-independent counters,
# wall-clock never gated.  See scripts/bench_gate.sh --help.
scripts/bench_gate.sh

echo "== tier-1: partition daemon smoke (SLO fallback, cache, counters) =="
# One daemon, three requests, then the counter ledger: an expired deadline
# must fall back to the incumbent heuristic, a resubmitted matrix must hit
# the instance cache, and the daemon's own counters must account for
# exactly that — 3 solves, 1 hit, 1 deadline return.
svc_dir=$(mktemp -d)
svc_sock=$svc_dir/rectpart.sock
"$root"/build/examples/rectpart_served --socket="$svc_sock" --threads=2 \
  >"$svc_dir/served.log" 2>&1 &
svc_pid=$!
trap 'kill "$svc_pid" 2>/dev/null || true; rm -rf "$svc_dir"' EXIT
clientctl="$root/build/examples/rectpart_clientctl"
"$clientctl" --socket="$svc_sock" --retry-ms=5000 --op=solve --family=peak \
  --n=64 --m=8 --algo=jag-m-opt --deadline-ms=0 \
  | grep -q 'deadline   : fallback answer'
"$clientctl" --socket="$svc_sock" --op=solve --family=multipeak --n=64 \
  --m=8 >/dev/null
"$clientctl" --socket="$svc_sock" --op=solve --family=multipeak --n=64 \
  --m=8 | grep -q 'cache hit  : yes'
svc_counters=$("$clientctl" --socket="$svc_sock" --op=counters)
grep -q '"service_requests":3' <<<"$svc_counters"
grep -q '"service_cache_hits":1' <<<"$svc_counters"
grep -q '"service_deadline_returns":1' <<<"$svc_counters"

echo "== tier-1: daemon telemetry (metrics scrape + promcheck + rectpart_top) =="
# The same daemon's telemetry plane: the Prometheus exposition must satisfy
# promcheck (format grammar + every compiled-in work counter exported), the
# ping extras must carry the build SHA, and rectpart_top must render a
# per-engine latency row from one cumulative poll.
"$clientctl" --socket="$svc_sock" --op=metrics >"$svc_dir/metrics.prom"
"$root"/build/tools/benchstat promcheck "$svc_dir/metrics.prom"
grep -q 'rectpart_requests_total{op="solve"} 3' "$svc_dir/metrics.prom"
grep -q '# TYPE rectpart_request_duration_us histogram' "$svc_dir/metrics.prom"
"$clientctl" --socket="$svc_sock" --op=ping | grep -q 'version'
top_out=$("$root"/build/tools/rectpart_top --socket="$svc_sock" --iterations=1)
grep -q 'p50' <<<"$top_out"
grep -q 'p99' <<<"$top_out"
grep -Eq 'jag-m-(opt|heur) ' <<<"$top_out"  # a per-engine row rendered

"$clientctl" --socket="$svc_sock" --op=shutdown >/dev/null
wait "$svc_pid"
trap - EXIT
rm -rf "$svc_dir"

echo "== tier-1: web-scale sparse smoke (2^20 CSR under a 4 GiB ceiling) =="
# The sparse substrate's acceptance run: generate a 2^20 x 2^20 power-law
# COO instance out-of-core (the dense Γ array would need 8 TiB), then solve
# it through the CSR substrate inside a 4 GiB address-space ulimit.  The
# BENCH record the run appends must validate, carrying the substrate's own
# counters (sparse_rows_touched) for cross-session diffing.
sparse_dir=$(mktemp -d)
"$root"/build/examples/rectpart_cli --family=powerlaw --format=coo \
  --n=1048576 --nnz=16777216 --seed=5 --gen-coo="$sparse_dir/web20.rpc" \
  >/dev/null
(cd "$sparse_dir" &&
 ulimit -v $((4 * 1024 * 1024)) &&
 "$root"/build/examples/rectpart_cli --input=web20.rpc --format=coo \
   --m=256 --algo=jag-pq-heur --bench-json=sparse_smoke \
   | grep -q 'instance   : 1048576x1048576')
"$root"/build/tools/benchstat --validate "$sparse_dir/BENCH_sparse_smoke.json"
grep -q '"sparse_rows_touched"' "$sparse_dir/BENCH_sparse_smoke.json"
# The hierarchical family at the same scale: hier-rb's cut searches probe
# full-width rectangle loads, which the tiled Γ overlay answers with
# interior-tile prefix lookups plus a bounded fringe (tile_prefix_hits /
# tile_fringe_rows in the BENCH record) — infeasible over plain row walks.
(cd "$sparse_dir" &&
 ulimit -v $((4 * 1024 * 1024)) &&
 "$root"/build/examples/rectpart_cli --input=web20.rpc --format=coo \
   --m=256 --algo=hier-rb --bench-json=sparse_smoke_hier \
   | grep -q 'instance   : 1048576x1048576')
"$root"/build/tools/benchstat --validate "$sparse_dir/BENCH_sparse_smoke_hier.json"
grep -q '"tile_prefix_hits"' "$sparse_dir/BENCH_sparse_smoke_hier.json"
rm -rf "$sparse_dir"

echo "== tier-1: RECTPART_OBS=0 (spans/counters compile to no-ops) =="
# The disabled build must compile the instrumented tree cleanly — including
# the fully-instrumented daemon, whose telemetry plane becomes no-ops — and
# still pass the observability suite (its counter assertions self-gate).
cmake -B build-noobs -S . -DRECTPART_OBS=0 >/dev/null
cmake --build build-noobs -j "$jobs" \
  --target test_obs rectpart_cli rectpart_served rectpart_top
build-noobs/tests/test_obs
build-noobs/examples/rectpart_cli --family=peak --n=64 --m=16 \
  --algo=jag-m-heur --counters >/dev/null

echo "== tier-1: RECTPART_SIMD=0 + UBSan (scalar fallback bit-identity) =="
# The mandatory scalar fallback, instrumented with UBSan: the dispatched
# kernels must compile out cleanly, the prefix/stripe/parallel suites must
# pass on the scalar bodies, and — the substance — the scalar build's
# deterministic counters must equal the SIMD-build baselines exactly
# (bench_gate run against this tree), proving the data plane changes how
# fast the work happens, never what work happens.  The undefined preset
# compiles with -fno-sanitize-recover=all, so any UBSan report fails the
# stage.  test_service runs here too: the daemon parses untrusted headers,
# and its overflow tests (cell extent, deadline) only bite under UBSan.
cmake -B build-scalar -S . -DRECTPART_SIMD=0 -DRECTPART_SANITIZE=undefined \
  >/dev/null
cmake --build build-scalar -j "$jobs" \
  --target test_parallel test_stripe_projection test_simd test_prefix_sum \
  test_service benchstat micro_core micro_oned micro_service micro_sparse \
  fig06_runtime
build-scalar/tests/test_simd
build-scalar/tests/test_prefix_sum
build-scalar/tests/test_stripe_projection
build-scalar/tests/test_parallel --gtest_filter='ParallelLayer*'
build-scalar/tests/test_service
scripts/bench_gate.sh build-scalar

echo "== tier-1: AddressSanitizer (Γ-row store slots + untrusted bytes) =="
# The exact jagged searches address every Γ row of their stores by hand-
# computed slot offsets, the file loaders size their allocations from
# untrusted headers, and the daemon's payload fingerprint reads untrusted
# bytes at hand-computed tail offsets: those suites, and the pool they run
# on, under ASan (LeakSanitizer on), in a build tree of their own.
cmake -B build-asan -S . -DRECTPART_SANITIZE=address >/dev/null
cmake --build build-asan -j "$jobs" \
  --target test_jagged_opt test_sparse_load test_io test_parallel \
  test_service
build-asan/tests/test_jagged_opt
build-asan/tests/test_sparse_load
build-asan/tests/test_io
build-asan/tests/test_parallel
build-asan/tests/test_service

echo "== tier-1: ThreadSanitizer (thread pool + determinism suites) =="
cmake -B build-tsan -S . -DRECTPART_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$jobs" \
  --target test_parallel test_util test_picmag test_picmag3 test_jagged_opt \
  test_service test_obs test_sparse_load test_hier
build-tsan/tests/test_parallel
build-tsan/tests/test_util --gtest_filter='ThreadPool*'
# The partition daemon under TSan: accept thread, connection handlers, the
# instance cache, asynchronous SLO upgrades, and the live telemetry path
# (per-request histograms, access log, flight recorder, metrics scrapes)
# all race-checked at a forced multi-thread pool width.
RECTPART_THREADS=4 build-tsan/tests/test_service
# The shared per-thread shard: work counters and the telemetry registry
# (concurrent count() and observe() against live snapshots, the 1-vs-8-thread
# merge invariance, and the engines' counting at a forced pool width).
RECTPART_THREADS=4 build-tsan/tests/test_obs
# The threaded simulator and stripe-DP suites, forced to a multi-thread pool
# (the container may report a single CPU, which would otherwise degrade the
# whole run to sequential and hide every race from TSan).
RECTPART_THREADS=4 build-tsan/tests/test_picmag
RECTPART_THREADS=4 build-tsan/tests/test_picmag3
RECTPART_THREADS=4 build-tsan/tests/test_jagged_opt
# The CSR build's pool-parallel counting scatters and band compaction (the
# bit-identity and first-bad-entry tests run them at widths 2 and 4), plus
# the lazily built CSC mirror under the multi-thread sparse golden runs.
RECTPART_THREADS=4 build-tsan/tests/test_sparse_load
# HIER-RELAXED's forked subtrees, each node sweeping a thread_local
# projection, at widths 1-8 on the dense, swapped and CSR substrates.
build-tsan/tests/test_hier --gtest_filter='HierRelaxedSweep*'

echo "== tier-1: OK =="
