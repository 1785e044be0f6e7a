// Seed plumbing shared by the seeded soaks (chaos, cascade, split, zombie).
// A soak instantiates one test per seed 1..N, each deriving its whole fault
// schedule from that seed; TFR_CHAOS_SEED=<seed> replays one schedule in
// place of the parameter (scripts/replay_seed_corpus.sh runs the /0
// instance that way).
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace tfr::soak {

/// N for a soak's seeds 1..N: `env_var` when it holds a positive count
/// (check.sh's soak modes set it), otherwise `fallback` (the ctest smoke).
inline std::uint64_t seed_count(const char* env_var, std::uint64_t fallback) {
  if (const char* env = std::getenv(env_var)) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) return static_cast<std::uint64_t>(n);
  }
  return fallback;
}

/// The seed this instance runs: TFR_CHAOS_SEED when set, else `param`.
/// Printed on pass too, so a replay confirms which schedule ran.
inline std::uint64_t run_seed(const char* soak, std::uint64_t param) {
  const char* env = std::getenv("TFR_CHAOS_SEED");
  const std::uint64_t seed = env != nullptr ? std::strtoull(env, nullptr, 10) : param;
  std::printf("[ %-8s ] seed %llu%s\n", soak, static_cast<unsigned long long>(seed),
              env != nullptr ? " (from TFR_CHAOS_SEED)" : "");
  return seed;
}

/// The SCOPED_TRACE text that tells a failing run how to replay it.
inline std::string replay_hint(const char* soak, std::uint64_t seed) {
  return std::string(soak) + " seed " + std::to_string(seed) +
         " — replay with TFR_CHAOS_SEED=" + std::to_string(seed);
}

}  // namespace tfr::soak
