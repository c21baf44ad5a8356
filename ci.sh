#!/usr/bin/env bash
# CI entry point. Two halves, sliceable for CI jobs:
#
#   tier-1   — configure, build with -Wall -Wextra, ctest -L tier1, and
#              validated smoke runs of the codec / merge-policy /
#              concurrent-churn / sharded-churn / durability / telemetry /
#              server benchmarks. Smoke outputs land in
#              $BUILD_DIR/bench_smoke/ — the committed BENCH_*.json are
#              full-size runs and are never overwritten — and
#              tools/check_bench_json.py checks both sets.
#   sanitize — ThreadSanitizer over the `concurrency`-labelled suites
#              and an ASan+UBSan build of the FULL ctest suite.
#   static   — tools/run_static_analysis.sh: clang -Wthread-safety
#              -Werror build (+ the dropped-REQUIRES negative test),
#              clang-tidy, the lock-order lint, and a bounded fuzz
#              smoke over fuzz/corpus/ (docs/static_analysis.md).
#
# Knobs: SANITIZERS=0 skips the sanitizer half (fast local/tier-1 run);
# SANITIZERS_ONLY=1 runs only the sanitizer half (the CI matrix job);
# STATIC_ONLY=1 runs only the static-analysis slice (the CI static job
# sets REQUIRE_TOOLS=1 so a missing clang fails instead of skipping).
set -euo pipefail
cd "$(dirname "$0")"

BUILD_DIR="${BUILD_DIR:-build}"
TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-build-tsan}"
ASAN_BUILD_DIR="${ASAN_BUILD_DIR:-build-asan}"
SANITIZERS="${SANITIZERS:-1}"
SANITIZERS_ONLY="${SANITIZERS_ONLY:-0}"
STATIC_ONLY="${STATIC_ONLY:-0}"

if [ "$STATIC_ONLY" = "1" ]; then
  ./tools/run_static_analysis.sh
  echo "ci.sh: OK (static slice)"
  exit 0
fi

if [ "$SANITIZERS_ONLY" != "1" ]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j
  (cd "$BUILD_DIR" && ctest -L tier1 --output-on-failure -j)
  SMOKE="$BUILD_DIR/bench_smoke"
  mkdir -p "$SMOKE"

  # Codec smoke run: quick pass so regressions in the hot decode loops
  # surface in CI output (BENCH_codec.json is the frozen record of these
  # loops against the paper's per-posting varint layout).
  if [ -x "$BUILD_DIR/bench_micro_codec" ]; then
    "$BUILD_DIR/bench_micro_codec" --benchmark_min_time=0.05 \
      --benchmark_filter='BM_Decode(IdList|ChunkList)(/|$)'
  fi

  # Merge-policy smoke run: sustained churn with the incremental merge
  # in every mode, validated against the oracle, small enough for CI.
  "$BUILD_DIR/bench_merge_policy" docs=3000 terms=40 vocab=2000 \
    rounds=2 round_updates=500 round_inserts=100 queries=5 \
    merge_min=8 merge_ratio=0.1 merge_budget_kb=64 merge_interval=128 \
    validate=1 out="$SMOKE/BENCH_merge.json"

  # Concurrency smoke run: query threads racing the background merger
  # under churn in all three modes, oracle-validated.
  "$BUILD_DIR/bench_concurrent_churn" docs=2000 vocab=1500 terms=20 \
    writer_ops=4000 query_threads=2 validate_every=8 \
    merge_min=16 merge_ratio=0.15 merge_interval=150 \
    out="$SMOKE/BENCH_concurrency.json"

  # Sharding smoke run: writer threads scaled with the shard count under
  # scatter-gather query load; every validated query is checked per
  # shard against the brute-force oracle at a cross-shard snapshot. The
  # JSON check asserts writer throughput is monotone non-decreasing from
  # 1 to 4 shards (docs/sharding.md).
  # (Readers never block writers under MVCC; with one shard every writer
  # thread serializes on that shard's writer mutex, and N shards split
  # it, so the curve climbs with the shard count; the committed
  # BENCH_sharding.json is a larger run of the same shape.)
  "$BUILD_DIR/bench_sharded_churn" docs=2500 vocab=2000 terms=25 \
    run_ms=3000 shards=1,2,4 query_threads=3 validate_every=32 \
    merge_min=16 merge_ratio=0.15 merge_interval=150 \
    out="$SMOKE/BENCH_sharding.json"

  # Durability smoke run (docs/durability.md): group commit vs
  # fsync-per-statement on a latency-padded WAL, in five interleaved
  # pairs, plus timed recovery with and without a covering checkpoint.
  # The JSON check asserts the median paired group/sync-each ratio is
  # >= 3x, checkpoints shorten replay, and the recovered engine answers
  # the pre-restart query set identically.
  "$BUILD_DIR/bench_durability" docs=200 threads=8 ops=100 reps=5 \
    wal_ops=800,2000 queries=15 out="$SMOKE/BENCH_durability.json"

  # Telemetry smoke run (docs/observability.md): the MVCC churn workload
  # with telemetry off vs fully on (registry histograms, slow-query
  # threshold, background periodic dump), in five off/on pairs. The
  # JSON check gates the median paired on/off wall ratio <= 1.05, 0
  # oracle mismatches, at least one periodic dump, and a successful
  # DumpMetrics round-trip in both formats mid-flight. 36000 writer ops
  # make each rep last about 1 s (about 10 s for the ten reps).
  "$BUILD_DIR/bench_telemetry" docs=2000 vocab=1500 terms=20 \
    writer_ops=36000 query_threads=2 validate_every=32 reps=5 \
    out="$SMOKE/BENCH_telemetry.json"

  # Serving smoke run (docs/serving.md): a real server over real
  # sockets. Closed-loop DML across 1 vs 8 connections on a
  # latency-padded WAL (the JSON check asserts the multi-connection run
  # beats one connection — group commit coalescing across clients),
  # open-loop search at two client counts (sustained QPS, p50/p99/p999
  # with the coordinated-omission correction), and a 2x-overload phase
  # against armed admission control (must shed typed kOverloaded while
  # admitted p99 stays within 5x the ceiling).
  "$BUILD_DIR/bench_server_loadgen" docs=1200 vocab=800 write_ops=150 \
    search_requests=1200 probe_ops=250 clients=2,8 \
    dir=bench_server_dir out="$SMOKE/BENCH_server.json"

  # Paper smoke run (Fig. 8): query work against k for ID,
  # Score-Threshold and Chunk, oracle-validated. The JSON check gates
  # only the list-page counts, which repeat exactly: ID flat within
  # +-20% and Chunk <= Score-Threshold at every k.
  "$BUILD_DIR/bench_fig8_varying_k" docs=5000 vocab=5000 terms=60 \
    updates=2000 validate=1 out="$SMOKE/BENCH_paper.json"

  # Paper smoke run (Table 1): long-list bytes per method. The JSON
  # check gates the deterministic order Score > Score-Threshold >
  # TermScore variants > Chunk >= ID, with Chunk within 1.25x of ID.
  "$BUILD_DIR/bench_table1_index_sizes" docs=3000 terms=60 vocab=5000 \
    out="$SMOKE/BENCH_paper_table1.json"

  # Paper smoke run (Table 3): short-list bytes per inserted doc, at
  # the committed artifact's size (about 2 s). The JSON check gates the
  # deterministic shape: bytes rise with the inserts and fall after the
  # offline merge.
  "$BUILD_DIR/bench_table3_insertions" docs=10000 \
    out="$SMOKE/BENCH_paper_table3.json"

  # Same-work run: all six methods' query counters (postings, score
  # lookups, candidates, blocks, gallops, seeks, list-pool misses) at
  # the committed parameters, oracle-validated. The JSON check requires
  # the rows to equal the committed BENCH_work.json exactly.
  "$BUILD_DIR/bench_query_work" out="$SMOKE/BENCH_work.json"

  # The committed artifacts (BENCH_mvcc.json is frozen history: its
  # bench is retired) and this run's smoke outputs pass the same gates.
  COMMITTED="BENCH_merge.json BENCH_concurrency.json BENCH_sharding.json
    BENCH_mvcc.json BENCH_durability.json BENCH_telemetry.json
    BENCH_server.json BENCH_paper.json BENCH_paper_table1.json
    BENCH_paper_table3.json BENCH_work.json"
  if command -v python3 > /dev/null; then
    python3 tools/check_bench_json.py --self-test
    # shellcheck disable=SC2086
    python3 tools/check_bench_json.py $COMMITTED "$SMOKE"/BENCH_*.json
  else
    for f in $COMMITTED "$SMOKE"/BENCH_*.json; do
      grep -q '"bench": ' "$f"
    done
    echo "bench JSONs present (python3 unavailable, shallow check)"
  fi

  # Server binary smoke (docs/serving.md): boot svr_server on an
  # ephemeral port, probe it over the binary protocol with its own
  # client mode, scrape /metrics over plain HTTP, then SIGTERM and
  # require a clean exit.
  rm -f svr_smoke.port
  "$BUILD_DIR/svr_server" docs=800 vocab=600 terms=15 shards=2 \
    workers=2 port_file=svr_smoke.port &
  SVR_PID=$!
  for _ in $(seq 1 100); do [ -s svr_smoke.port ] && break; sleep 0.2; done
  [ -s svr_smoke.port ] || { echo "svr_server never wrote its port"; exit 1; }
  SVR_PORT=$(cat svr_smoke.port)
  "$BUILD_DIR/svr_server" connect=127.0.0.1:"$SVR_PORT" ping=1 \
    query="t1 t2" k=5 | grep -q "watermark="
  METRICS=$( { exec 3<>/dev/tcp/127.0.0.1/"$SVR_PORT"; \
    printf 'GET /metrics HTTP/1.1\r\n\r\n' >&3; cat <&3; } )
  echo "$METRICS" | grep -q "svr_server_requests"
  kill -TERM "$SVR_PID"
  wait "$SVR_PID"
  rm -f svr_smoke.port
  echo "svr_server smoke: OK"

  # Examples must build (README points new readers at them) and the
  # quickstart must run.
  cmake --build "$BUILD_DIR" -j --target svr_examples
  "$BUILD_DIR/example_quickstart" > /dev/null
fi

if [ "$SANITIZERS" = "1" ]; then
  # ThreadSanitizer pass (docs/concurrency.md, docs/sharding.md): the
  # `concurrency`-labelled suites — epoch manager, two-phase merge
  # protocol, scheduler worker pool, engine-level churn, sharded
  # scatter-gather churn, the telemetry record/snapshot paths, and the
  # server's event-loop/worker/admission machinery — must be race-free.
  # The suites self-scale their workload sizes under TSan.
  cmake -B "$TSAN_BUILD_DIR" -S . \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  cmake --build "$TSAN_BUILD_DIR" -j --target concurrency_test \
    --target sharded_engine_test --target mvcc_test \
    --target telemetry_test --target server_test
  (cd "$TSAN_BUILD_DIR" && ctest -L concurrency --output-on-failure)

  # AddressSanitizer + UndefinedBehaviorSanitizer over the FULL suite:
  # memory and UB bugs rarely sit where the thread bugs do, so this pass
  # runs every tier-1 test, not just the concurrency slice. This is also
  # the kill-and-recover smoke under sanitizers: durability_test's sweep
  # crashes the engine at 20+ randomized fault points (short writes,
  # fsync failures, mid-checkpoint kills) and recovers each one against
  # the brute-force oracle.
  cmake -B "$ASAN_BUILD_DIR" -S . \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  cmake --build "$ASAN_BUILD_DIR" -j --target svr_tests
  (cd "$ASAN_BUILD_DIR" && ctest -L tier1 --output-on-failure)
fi

echo "ci.sh: OK"
