#!/usr/bin/env bash
# Replay every pinned schedule in tests/integration/seed_corpus.txt against
# the soak suites it names — the regression gate for seeds
# that have actually failed in the past (see the corpus header for the
# add-a-seed workflow).
#
# Usage: scripts/replay_seed_corpus.sh <integration_tests-binary> [corpus]
# Wired into ctest as the `seed_corpus` test (tests/CMakeLists.txt).
set -euo pipefail

BIN="${1:?usage: replay_seed_corpus.sh <integration_tests-binary> [corpus]}"
CORPUS="${2:-$(dirname "$0")/../tests/integration/seed_corpus.txt}"
if [ ! -x "$BIN" ]; then
  echo "replay_seed_corpus: '$BIN' is not an executable test binary" >&2
  exit 2
fi
if [ ! -f "$CORPUS" ]; then
  echo "replay_seed_corpus: corpus '$CORPUS' not found" >&2
  exit 2
fi

ran=0
while read -r kind seed _; do
  case "$kind" in
    "" | \#*) continue ;;
    race) filter='Seeds/ProofExpiryRaceTest.*/0' ;;
    chaos | cascade | split | zombie) filter="Seeds/${kind^}SoakTest.*/0" ;;
    *)
      echo "replay_seed_corpus: unknown kind '$kind' in $CORPUS (use chaos|zombie|cascade|split|race)" >&2
      exit 2
      ;;
  esac
  if ! [[ $seed =~ ^[0-9]+$ ]]; then
    echo "replay_seed_corpus: bad seed '$seed' for kind '$kind' in $CORPUS" >&2
    exit 2
  fi
  echo "### replaying $kind seed $seed"
  TFR_CHAOS_SEED="$seed" "$BIN" --gtest_filter="$filter"
  ran=$((ran + 1))
done < "$CORPUS"

if [ "$ran" -eq 0 ]; then
  echo "replay_seed_corpus: corpus '$CORPUS' contains no schedules" >&2
  exit 2
fi
echo "seed corpus OK ($ran schedules)"
