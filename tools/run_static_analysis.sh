#!/usr/bin/env bash
# Static-analysis gate (docs/static_analysis.md). Four checks:
#
#   1. clang build of the whole tree with -Wthread-safety -Werror: the
#      annotations in src/common/thread_annotations.h turn the lock
#      contracts of docs/concurrency.md and docs/durability.md into
#      compile errors.
#      1b. Negative test: rebuild the engine's merge-policy tick with its
#      REQUIRES(writer_mu_) compiled out (-DSVR_TSA_NEGATIVE_TEST) and
#      assert the build FAILS — proof the analysis is actually armed,
#      not silently off.
#   2. clang-tidy (bugprone-*, performance-*, concurrency-* — see
#      .clang-tidy) over src/, driven by compile_commands.json.
#   3. tools/check_lock_order.py: lexical lock-order lint over the
#      acquisition pairs the thread-safety analysis cannot see
#      (dynamically indexed per-shard mutex vectors), plus its
#      --self-test (which must reject a seeded cycle).
#   4. Bounded fuzz smoke: both fuzz/ harnesses over their checked-in
#      corpora plus a deterministic mutation budget.
#
# clang and clang-tidy are probed, not required: without them the script
# runs what it can and reports the rest as SKIPPED, unless REQUIRE_TOOLS=1
# (set in CI, where the static job installs them) turns a skip into a
# failure.
set -uo pipefail
cd "$(dirname "$0")/.."

REQUIRE_TOOLS="${REQUIRE_TOOLS:-0}"
CLANG_BUILD_DIR="${CLANG_BUILD_DIR:-build-clang}"
FUZZ_BUILD_DIR="${FUZZ_BUILD_DIR:-build}"
FUZZ_ITERS="${FUZZ_ITERS:-20000}"
TIDY_JOBS="${TIDY_JOBS:-$(nproc 2> /dev/null || echo 2)}"

failures=0
skips=0

note() { printf '== %s\n' "$*"; }
fail() {
  printf 'FAIL: %s\n' "$*" >&2
  failures=$((failures + 1))
}
skip() {
  if [ "$REQUIRE_TOOLS" = "1" ]; then
    fail "$* (REQUIRE_TOOLS=1)"
  else
    printf 'SKIPPED: %s\n' "$*"
    skips=$((skips + 1))
  fi
}

find_tool() { # find_tool NAME [VERSIONED...]
  local cand
  for cand in "$@"; do
    if command -v "$cand" > /dev/null 2>&1; then
      echo "$cand"
      return 0
    fi
  done
  return 1
}

CLANGXX="$(find_tool clang++ clang++-20 clang++-19 clang++-18 clang++-17 || true)"
TIDY="$(find_tool clang-tidy clang-tidy-20 clang-tidy-19 clang-tidy-18 clang-tidy-17 || true)"

# --- 1. thread-safety build (clang, -Werror) ----------------------------
if [ -n "$CLANGXX" ]; then
  note "clang thread-safety build ($CLANGXX)"
  if cmake -B "$CLANG_BUILD_DIR" -S . \
    -DCMAKE_CXX_COMPILER="$CLANGXX" > /dev/null \
    && cmake --build "$CLANG_BUILD_DIR" -j --target svr; then
    note "thread-safety build: OK"
  else
    fail "clang -Wthread-safety -Werror build of src/"
  fi

  # --- 1b. negative test ------------------------------------------------
  # Compile the engine TU with the REQUIRES on the merge-policy tick
  # removed; the call sites still hold writer_mu_, but
  # MaybeRunMergePolicy now *acquires nothing and requires nothing*, so
  # its unguarded reads of scheduler_ (GUARDED_BY writer_mu_) must trip
  # the analysis.
  note "negative test: dropping REQUIRES on SvrEngine::MaybeRunMergePolicy"
  if "$CLANGXX" -std=c++17 -fsyntax-only -Wthread-safety \
    -Werror=thread-safety-analysis -Werror=thread-safety-precise \
    -DSVR_TSA_NEGATIVE_TEST -Isrc -I. src/core/svr_engine.cc \
    > /dev/null 2> "$CLANG_BUILD_DIR/negative_test.log"; then
    fail "negative test: build SUCCEEDED with the REQUIRES dropped"
  else
    if grep -q 'thread-safety' "$CLANG_BUILD_DIR/negative_test.log"; then
      note "negative test: build fails without the annotation — OK"
    else
      fail "negative test: build failed, but not with a thread-safety error"
      cat "$CLANG_BUILD_DIR/negative_test.log" >&2
    fi
  fi
else
  skip "clang not found: thread-safety build + negative test"
fi

# --- 2. clang-tidy ------------------------------------------------------
if [ -n "$TIDY" ] && [ -n "$CLANGXX" ]; then
  note "clang-tidy ($TIDY) over src/"
  if [ ! -f "$CLANG_BUILD_DIR/compile_commands.json" ]; then
    fail "clang-tidy: no compile_commands.json in $CLANG_BUILD_DIR"
  elif find src -name '*.cc' -print0 \
    | xargs -0 -n 4 -P "$TIDY_JOBS" "$TIDY" -p "$CLANG_BUILD_DIR" --quiet; then
    note "clang-tidy: OK"
  else
    fail "clang-tidy found violations"
  fi
else
  skip "clang-tidy not found: tidy pass"
fi

# --- 3. lock-order lint -------------------------------------------------
if command -v python3 > /dev/null 2>&1; then
  note "lock-order lint"
  if python3 tools/check_lock_order.py --self-test \
    && python3 tools/check_lock_order.py --root .; then
    note "lock-order lint: OK"
  else
    fail "tools/check_lock_order.py"
  fi
  note "bench-json checker self-test"
  if python3 tools/check_bench_json.py --self-test; then
    note "bench-json self-test: OK"
  else
    fail "tools/check_bench_json.py --self-test"
  fi
else
  skip "python3 not found: lock-order lint + bench-json self-test"
fi

# --- 4. fuzz smoke ------------------------------------------------------
note "fuzz smoke (FUZZ_ITERS=$FUZZ_ITERS per target)"
if cmake -B "$FUZZ_BUILD_DIR" -S . > /dev/null \
  && cmake --build "$FUZZ_BUILD_DIR" -j --target svr_fuzzers; then
  for target in fuzz_wal_frame fuzz_block_codec; do
    corpus="fuzz/corpus/${target#fuzz_}"
    if FUZZ_ITERS="$FUZZ_ITERS" "$FUZZ_BUILD_DIR/$target" "$corpus"/*; then
      note "$target: OK"
    else
      fail "$target crashed (replay the failing input to reproduce)"
    fi
  done
else
  fail "fuzz targets failed to build"
fi

if [ "$failures" -gt 0 ]; then
  echo "run_static_analysis.sh: $failures check(s) FAILED" >&2
  exit 1
fi
echo "run_static_analysis.sh: OK ($skips skipped)"
