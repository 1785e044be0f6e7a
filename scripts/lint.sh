#!/usr/bin/env bash
# Lint gate, in three halves:
#
#  1. clang-tidy (see .clang-tidy for the check set) — runs only when a
#     clang-tidy binary is on PATH, since the reference container ships gcc
#     only. Needs a compile_commands.json; any build dir will do.
#  2. The blocking-call-under-lock check: clang-query over the TFR_BLOCKING
#     annotate attributes when clang-query is installed, else the documented
#     grep fallback scripts/check_blocking.py (see TESTING.md). Deliberate
#     sites are suppressed in place with `// tfr-lint: blocking-ok(<reason>)`.
#  3. Tree-invariant greps that always run, gcc or not:
#       - no raw std synchronization primitives outside annotations.h (all
#         locking must go through the annotated tfr::Mutex wrappers so the
#         lock-rank validator and clang TSA see every acquisition);
#       - no naked sleep_for outside the simulated clock and tests (retry
#         loops must use backoff.h, and prod code sleeps via clock.h so
#         latency injection stays honest);
#       - no `(void)call()` discards in src/ — dropping a Status needs
#         TFR_IGNORE_STATUS(expr, "why") so every discard carries its
#         justification and is greppable;
#       - no runtime-ranked tfr::Mutex declarations in src/ — mutexes
#         declare their rank in the type (RankedMutex<LockRank::kX>) so the
#         compile-time ordering check sees them;
#       - no metric name built by concatenation in src/ — a name per region
#         or per server adds a registry entry that is never erased.
#
# Registered with ctest as the `lint` test; also reachable as
# `scripts/check.sh lint`.
set -uo pipefail
cd "$(dirname "$0")/.."

fail=0

# ---- half 1: clang-tidy, when available --------------------------------
if command -v clang-tidy > /dev/null 2>&1; then
  CDB=""
  for d in build build-analyze build-asan build-ubsan build-asan-ubsan build-tsan; do
    [ -f "$d/compile_commands.json" ] && CDB="$d" && break
  done
  if [ -z "$CDB" ]; then
    echo "lint: clang-tidy found but no compile_commands.json; configure a build first" >&2
    fail=1
  else
    echo "lint: running clang-tidy (compile db: $CDB)"
    # shellcheck disable=SC2046
    if ! clang-tidy -p "$CDB" --quiet $(find src -name '*.cpp' | sort); then
      fail=1
    fi
  fi
else
  echo "lint: clang-tidy not installed; skipping the tidy half (greps still run)"
fi

# ---- half 2: blocking calls under a lock -------------------------------
if command -v clang-query > /dev/null 2>&1; then
  CDB=""
  for d in build build-analyze build-asan build-ubsan build-asan-ubsan build-tsan; do
    [ -f "$d/compile_commands.json" ] && CDB="$d" && break
  done
  if [ -n "$CDB" ]; then
    echo "lint: running clang-query blocking-under-lock check (compile db: $CDB)"
    # shellcheck disable=SC2046
    out=$(clang-query -f scripts/blocking_under_lock.query -p "$CDB" \
            $(find src -name '*.cpp' | sort) 2>&1)
    # Filter matches whose source line (or the comment block above it)
    # carries a blocking-ok suppression; clang-query prints "file:line:col:".
    viol=$(echo "$out" | grep -E '^[^ ]+\.(cpp|h):[0-9]+:[0-9]+:' | while IFS=: read -r f l _; do
      ok=0
      j="$l"
      if sed -n "${l}p" "$f" | grep -q 'tfr-lint: blocking-ok('; then ok=1; fi
      while [ "$ok" -eq 0 ] && [ "$j" -gt 1 ]; do
        j=$((j - 1))
        line=$(sed -n "${j}p" "$f")
        case "$line" in
          *'tfr-lint: blocking-ok('*) ok=1 ;;
          [[:space:]]*//*|//*) continue ;;
          *) break ;;
        esac
      done
      [ "$ok" -eq 0 ] && echo "$f:$l: blocking call under a lock (clang-query)"
    done || true)
    if [ -n "$viol" ]; then
      echo "lint: blocking call while a tfr lock guard is live — drop the lock or" >&2
      echo "      annotate the site with // tfr-lint: blocking-ok(<reason>):" >&2
      echo "$viol" >&2
      fail=1
    fi
  else
    echo "lint: clang-query found but no compile_commands.json; using grep fallback"
    if ! python3 scripts/check_blocking.py; then fail=1; fi
  fi
else
  echo "lint: clang-query not installed; using grep fallback scripts/check_blocking.py"
  if ! python3 scripts/check_blocking.py; then fail=1; fi
fi

# ---- half 3: grep-enforced tree invariants -----------------------------
viol=$(grep -rn --include='*.h' --include='*.cpp' -E \
  'std::(mutex|shared_mutex|recursive_mutex|timed_mutex|condition_variable|lock_guard|unique_lock|shared_lock|scoped_lock)\b' \
  src/ | grep -v '^src/common/annotations\.' || true)
if [ -n "$viol" ]; then
  echo "lint: raw std synchronization primitive outside src/common/annotations.h —" >&2
  echo "      use tfr::Mutex / tfr::MutexLock / tfr::CondVar instead:" >&2
  echo "$viol" >&2
  fail=1
fi

viol=$(grep -rn --include='*.h' --include='*.cpp' 'std::this_thread::sleep_for' \
  src/ | grep -v '^src/common/clock\.h' || true)
if [ -n "$viol" ]; then
  echo "lint: naked std::this_thread::sleep_for outside src/common/clock.h —" >&2
  echo "      sleep via tfr::sleep_micros, and retry via backoff.h:" >&2
  echo "$viol" >&2
  fail=1
fi

# A `(void)func(...)` cast silently discards a [[nodiscard]] Status/Result.
# The sanctioned discard is TFR_IGNORE_STATUS(expr, "one-line why").
viol=$(grep -rn --include='*.h' --include='*.cpp' -E \
  '\(void\) *[A-Za-z_][A-Za-z0-9_:.]*(->[A-Za-z0-9_]+)*\(' src/ \
  | grep -vE ':[0-9]+: *(//|\*)' || true)
if [ -n "$viol" ]; then
  echo "lint: raw (void) cast of a call expression in src/ — if the return is a" >&2
  echo "      Status/Result, handle it or use TFR_IGNORE_STATUS(expr, \"why\"):" >&2
  echo "$viol" >&2
  fail=1
fi

# Mutex ranks live in the type: RankedMutex<LockRank::kX> / RankedSharedMutex.
# A runtime-rank construction bypasses the compile-time table check.
viol=$(grep -rn --include='*.h' --include='*.cpp' -E \
  '\b(Mutex|SharedMutex) +[A-Za-z_][A-Za-z0-9_]* *\{ *LockRank::' src/ \
  | grep -v '^src/common/annotations\.h' || true)
if [ -n "$viol" ]; then
  echo "lint: runtime-ranked Mutex declaration in src/ — declare the rank in the" >&2
  echo "      type instead: RankedMutex<LockRank::kX> name{\"doc-name\"};" >&2
  echo "$viol" >&2
  fail=1
fi

# Metric names are fixed strings. A `global_counter("a." + id)` call makes one
# process-wide entry per id ever seen; per-object counts belong in the
# object's own stats().
viol=$(grep -rn --include='*.h' --include='*.cpp' -E \
  'global_(counter|gauge|histogram)\([^)]*(\+|to_string)' src/ || true)
if [ -n "$viol" ]; then
  echo "lint: metric name built by concatenation in src/ — name metrics with a" >&2
  echo "      fixed string and keep per-object counts in the object's stats():" >&2
  echo "$viol" >&2
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "lint FAILED" >&2
  exit 1
fi
echo "lint OK"
