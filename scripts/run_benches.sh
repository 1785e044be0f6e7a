#!/usr/bin/env bash
# Run every bench/*.cpp binary in turn and collect the output: the paper's
# Figures 2(a), 2(b) and 3, ablations A1-A3, bench_micro and bench_commit.
# Usage: scripts/run_benches.sh [build-dir (default build)] [output-file
#        (default bench_output.txt)]
# TFR_BENCH_SCALE (e.g. 0.3) shortens the runs of the benches that honour it.
#
# Every BENCH_*.json a bench writes is also appended to BENCH_history.jsonl
# as one line {"ts": ..., "file": ..., "data": {...}} so runs accumulate and
# regressions can be diffed across commits. The timestamp comes from
# TFR_BENCH_TS when set (CI passes the commit time for reproducible history
# lines); the wall clock is only the interactive fallback.
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
OUT="${2:-bench_output.txt}"
HISTORY="BENCH_history.jsonl"
TS="${TFR_BENCH_TS:-$(date -u +%Y-%m-%dT%H:%M:%SZ)}"

# The benchmark set is defined by the sources, not by whatever happened to
# build: a bench/*.cpp whose binary is missing is a broken build (or a target
# someone forgot to add to bench/CMakeLists.txt) and must fail the run, not
# silently shrink the comparison set.
missing=0
benches=()
for src in bench/*.cpp; do
  name="$(basename "$src" .cpp)"
  bin="$BUILD_DIR/bench/$name"
  if [ ! -x "$bin" ]; then
    echo "run_benches: missing bench binary '$bin' (source: $src)" >&2
    missing=1
    continue
  fi
  benches+=("$bin")
done
if [ "$missing" -ne 0 ]; then
  echo "run_benches: build the missing binaries first (cmake --build $BUILD_DIR)" >&2
  exit 1
fi
if [ "${#benches[@]}" -eq 0 ]; then
  echo "run_benches: no bench sources found under bench/" >&2
  exit 1
fi

# Stamp taken before any bench runs: only JSON files refreshed by THIS run
# get a history line (stale files from old runs would duplicate history).
STAMP="$(mktemp)"
trap 'rm -f "$STAMP"' EXIT

: > "$OUT"
for b in "${benches[@]}"; do
  echo "### $(basename "$b")" | tee -a "$OUT"
  # tee would mask a failing bench's exit status; check the pipe explicitly
  # so a crash or assertion aborts the whole run (with a pointer to the
  # culprit) instead of being buried in the middle of the output file. The
  # || guard keeps set -e from exiting before the diagnostic prints.
  "$b" 2>&1 | tee -a "$OUT" || {
    status=("${PIPESTATUS[@]}")
    echo "FAILED: $(basename "$b") exited ${status[0]} (tee: ${status[1]})" >&2
    exit 1
  }
  echo | tee -a "$OUT"
done

# Results the suite is REQUIRED to produce: a bench that silently stopped
# writing its JSON would otherwise just thin out the history. Must have been
# refreshed by this run, not left over from an old one.
for required in BENCH_commit.json; do
  if [ ! -f "$required" ] || [ ! "$required" -nt "$STAMP" ]; then
    echo "run_benches: required result '$required' was not produced by this run" >&2
    exit 1
  fi
done

appended=0
for f in BENCH_*.json; do
  [ -f "$f" ] || continue
  [ "$f" -nt "$STAMP" ] || continue
  # One line per file: collapse the pretty-printed JSON into the data field.
  printf '{"ts":"%s","file":"%s","data":%s}\n' "$TS" "$f" "$(tr -s ' \n' ' ' < "$f")" \
    >> "$HISTORY"
  appended=$((appended + 1))
done
echo "wrote $OUT, appended $appended result file(s) to $HISTORY (ts $TS)"
