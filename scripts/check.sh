#!/usr/bin/env bash
# One-shot correctness gate: configure, build, and run the full test suite —
# optionally under a sanitizer — plus static-analysis entry points.
#
# Usage:
#   scripts/check.sh                     # plain RelWithDebInfo build + ctest
#   scripts/check.sh analyze             # negative fixtures + clang TSA build
#   scripts/check.sh lint                # scripts/lint.sh + negative fixtures
#   scripts/check.sh sanitize            # ASan+UBSan build + full ctest
#   scripts/check.sh soak-partition      # 10-seed zombie-server partition soak
#   scripts/check.sh soak-recovery       # 20-seed cascading-failure soak
#   scripts/check.sh soak-split          # 20-seed topology-churn soak
#   scripts/check.sh bench-smoke         # ~5 s bench_commit A/B smoke run
#   scripts/check.sh tfrbench-smoke      # every tfrbench workload for 3 s, audited
#   TFR_SANITIZE=address scripts/check.sh
#   TFR_SANITIZE=thread  scripts/check.sh
#   TFR_SANITIZE=address,undefined scripts/check.sh   # what `sanitize` runs
#   TFR_CXX=clang++ TFR_SANITIZE=thread scripts/check.sh   # TSan under clang
#   TFR_CXX=clang++ scripts/check.sh soak-partition        # soak under TSan
#
# TFR_CXX selects the compiler (default: the system default, gcc on the
# reference machine). Each sanitizer/compiler combination gets its own build
# directory (build-asan, build-tsan-clang, ...) so switching back and forth
# never forces a full reconfigure.
#
# Known issue (see TESTING.md): with gcc 12's libtsan, integration_tests
# SEGVs inside the sanitizer's own interceptors before running any test; the
# other three binaries are clean under TSan. check.sh therefore skips
# integration_tests only for gcc TSan builds — under clang
# (TFR_CXX=clang++) the full suite runs.
set -euo pipefail
cd "$(dirname "$0")/.."

CXX="${TFR_CXX:-}"

# Figure out whether the chosen compiler is clang (decides the TSan skip
# below and validates the analyze subcommand up front).
compiler_is_clang() {
  local probe="${CXX:-c++}"
  command -v "$probe" > /dev/null 2>&1 && "$probe" --version 2> /dev/null | grep -qi clang
}

MODE="${1:-test}"
case "$MODE" in
  lint)
    scripts/lint.sh
    scripts/run_lint_fixtures.sh
    exit 0
    ;;
  sanitize)
    # The combined ASan+UBSan leg: one build, both classes of finding
    # (mirrors the TSan plumbing; see TESTING.md "Analysis matrix").
    exec env TFR_SANITIZE=address,undefined "$0" test
    ;;
  analyze)
    # Compile-time gates first: these run under any compiler — the seeded
    # negative fixtures must be rejected by -Werror=unused-result and the
    # AcquireToken static rank check.
    scripts/run_lint_fixtures.sh
    CXX="${CXX:-clang++}"
    if ! command -v "$CXX" > /dev/null 2>&1 || ! compiler_is_clang; then
      echo "check.sh analyze: the thread-safety half requires clang++ (set TFR_CXX" >&2
      echo "to a clang binary). The TFR_* annotations compile to nothing under gcc," >&2
      echo "so an analysis build with it would be vacuously clean. The fixture" >&2
      echo "gates above ran; the missing TSA build is an error here, not a pass." >&2
      exit 2
    fi
    BUILD_DIR=build-analyze
    cmake -B "$BUILD_DIR" -S . -DCMAKE_CXX_COMPILER="$CXX" -DTFR_ANALYZE=ON
    cmake --build "$BUILD_DIR" -j"$(nproc)"
    echo "analyze OK (negative fixtures + clang -Werror=thread-safety, compiler: $CXX)"
    exit 0
    ;;
  soak-partition)
    # The epoch-fencing acceptance soak: run the zombie-server scenario
    # across many seeds (TFR_ZOMBIE_SEEDS, default 10; ctest runs only the
    # 1-seed smoke). With TFR_CXX pointing at clang, the soak runs under
    # TSan so the fencing paths get raced as well as asserted.
    SEEDS="${TFR_ZOMBIE_SEEDS:-10}"
    if compiler_is_clang; then
      BUILD_DIR="build-tsan-$(basename "$CXX" | tr -d +)"
      cmake -B "$BUILD_DIR" -S . -DCMAKE_CXX_COMPILER="$CXX" \
        -DCMAKE_BUILD_TYPE=Debug -DTFR_SANITIZE=thread
    else
      BUILD_DIR=build
      cmake -B "$BUILD_DIR" -S .
    fi
    cmake --build "$BUILD_DIR" -j"$(nproc)" --target integration_tests
    TFR_ZOMBIE_SEEDS="$SEEDS" "$BUILD_DIR/tests/integration_tests" \
      --gtest_filter='Seeds/ZombiePartitionTest.*'
    echo "soak-partition OK ($SEEDS seeds$(compiler_is_clang && echo ", TSan under $CXX"))"
    exit 0
    ;;
  soak-recovery)
    # The bounded-recovery acceptance soak: cascading failures (a second
    # server crashing while the first recovery is still replaying) across
    # many seeds (TFR_CASCADE_SEEDS, default 20; ctest runs only a few).
    # With TFR_CXX pointing at clang, the soak runs under TSan so the
    # concurrent failure handlers and segment GC get raced as well as
    # asserted.
    SEEDS="${TFR_CASCADE_SEEDS:-20}"
    if compiler_is_clang; then
      BUILD_DIR="build-tsan-$(basename "$CXX" | tr -d +)"
      cmake -B "$BUILD_DIR" -S . -DCMAKE_CXX_COMPILER="$CXX" \
        -DCMAKE_BUILD_TYPE=Debug -DTFR_SANITIZE=thread
    else
      BUILD_DIR=build
      cmake -B "$BUILD_DIR" -S .
    fi
    cmake --build "$BUILD_DIR" -j"$(nproc)" --target integration_tests
    TFR_CASCADE_SEEDS="$SEEDS" "$BUILD_DIR/tests/integration_tests" \
      --gtest_filter='Seeds/CascadeSoakTest.*'
    echo "soak-recovery OK ($SEEDS seeds$(compiler_is_clang && echo ", TSan under $CXX"))"
    exit 0
    ;;
  soak-split)
    # The dynamic-topology acceptance soak: the balancer splits, merges and
    # moves regions while servers crash-fail and gray failures inject, across
    # many seeds (TFR_SPLIT_SEEDS, default 20; ctest runs only a few). With
    # TFR_CXX pointing at clang, the soak runs under TSan so the balancer
    # tick, the topology hooks, and the daughter gates get raced as well as
    # asserted.
    SEEDS="${TFR_SPLIT_SEEDS:-20}"
    if compiler_is_clang; then
      BUILD_DIR="build-tsan-$(basename "$CXX" | tr -d +)"
      cmake -B "$BUILD_DIR" -S . -DCMAKE_CXX_COMPILER="$CXX" \
        -DCMAKE_BUILD_TYPE=Debug -DTFR_SANITIZE=thread
    else
      BUILD_DIR=build
      cmake -B "$BUILD_DIR" -S .
    fi
    cmake --build "$BUILD_DIR" -j"$(nproc)" --target integration_tests
    TFR_SPLIT_SEEDS="$SEEDS" "$BUILD_DIR/tests/integration_tests" \
      --gtest_filter='Seeds/SplitSoakTest.*'
    echo "soak-split OK ($SEEDS seeds$(compiler_is_clang && echo ", TSan under $CXX"))"
    exit 0
    ;;
  bench-smoke)
    # Quick end-to-end exercise of the A/B hot-path benches: a few seconds
    # each at a tiny TFR_BENCH_SCALE, checking only that all modes run and
    # the JSON lands — the speedup claims (2x commit, 2x/5x read) need a
    # full-scale run (scripts/run_benches.sh), not this.
    BUILD_DIR=build
    cmake -B "$BUILD_DIR" -S .
    cmake --build "$BUILD_DIR" -j"$(nproc)" --target bench_commit bench_read bench_split
    rm -f BENCH_commit.json BENCH_read.json BENCH_split.json
    TFR_BENCH_SCALE="${TFR_BENCH_SCALE:-0.02}" "$BUILD_DIR/bench/bench_commit"
    if [ ! -f BENCH_commit.json ]; then
      echo "bench-smoke: bench_commit did not write BENCH_commit.json" >&2
      exit 1
    fi
    TFR_BENCH_SCALE="${TFR_BENCH_SCALE:-0.02}" "$BUILD_DIR/bench/bench_read"
    if [ ! -f BENCH_read.json ]; then
      echo "bench-smoke: bench_read did not write BENCH_read.json" >&2
      exit 1
    fi
    TFR_BENCH_SCALE="${TFR_BENCH_SCALE:-0.02}" "$BUILD_DIR/bench/bench_split"
    if [ ! -f BENCH_split.json ]; then
      echo "bench-smoke: bench_split did not write BENCH_split.json" >&2
      exit 1
    fi
    echo "bench-smoke OK (BENCH_commit.json, BENCH_read.json, BENCH_split.json written)"
    exit 0
    ;;
  tfrbench-smoke)
    # The benchmark's own smoke: builds tfrbench into build-bench, runs every
    # BENCHMARK.json workload for 3 s untraced and traced, and fails unless
    # each prints every declared metric and passes its durability audit.
    python3 bench/tfrbench/run.py --smoke
    echo "tfrbench-smoke OK"
    exit 0
    ;;
  test) ;;
  *)
    echo "unknown subcommand '$MODE' (use: analyze, lint, sanitize, soak-partition, soak-recovery, soak-split, bench-smoke, tfrbench-smoke, or no argument)" >&2
    exit 2
    ;;
esac

SAN="${TFR_SANITIZE:-}"
case "$SAN" in
  "") BUILD_DIR=build ;;
  address) BUILD_DIR=build-asan ;;
  thread) BUILD_DIR=build-tsan ;;
  undefined) BUILD_DIR=build-ubsan ;;
  address,undefined | undefined,address) BUILD_DIR=build-asan-ubsan ;;
  *)
    echo "unsupported TFR_SANITIZE='$SAN' (use address, thread, undefined, or address,undefined)" >&2
    exit 2
    ;;
esac
# Non-default compilers build in their own tree, e.g. build-tsan-clang.
if [ -n "$CXX" ]; then
  BUILD_DIR="$BUILD_DIR-$(basename "$CXX" | tr -d +)"
fi

CMAKE_ARGS=(-B "$BUILD_DIR" -S .)
if [ -n "$CXX" ]; then
  CMAKE_ARGS+=("-DCMAKE_CXX_COMPILER=$CXX")
fi
if [ -n "$SAN" ]; then
  CMAKE_ARGS+=(-DCMAKE_BUILD_TYPE=Debug "-DTFR_SANITIZE=$SAN")
fi

cmake "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j"$(nproc)"

if [ "$SAN" = thread ] && ! compiler_is_clang; then
  echo "note: skipping integration_tests under gcc TSan (gcc-12 libtsan artifact, see TESTING.md)"
  echo "      run with TFR_CXX=clang++ to include it"
  for t in common_tests storage_tests txn_recovery_tests; do
    "$BUILD_DIR/tests/$t"
  done
else
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"
fi
echo "check OK${SAN:+ (sanitizer: $SAN)}${CXX:+ (compiler: $CXX)}"
