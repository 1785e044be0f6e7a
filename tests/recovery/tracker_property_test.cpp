// Randomized concurrent property test for the flush-tracking pipeline:
// FlushTracker (Algorithm 1) feeding a registry C (client -> TF(c), a map
// under a mutex, max-merged like the recovery manager's ingest) under
// adversarial interleavings.
//
// Each trial runs 4 clients, each with a committer, an out-of-order
// flusher, and an advancer thread, against one shared registry, and checks
// the paper's invariants the whole time:
//
//   * TF(c) is monotone non-decreasing (every advance() return);
//   * TF(c) stays strictly below the oldest unflushed commit timestamp
//     (checker thread, against an oracle model of unflushed transactions);
//   * at quiesce the registry holds exactly each client's final TF(c).
//
// Trials are seeded and replayable:  TFR_PROP_SEED=<seed> overrides the
// schedule, TFR_PROP_ITERS=<n> the per-client transaction count. The seed
// is printed on every run. Runs under TSan via scripts/check.sh tsan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/recovery/flush_tracker.h"

namespace tfr {
namespace {

constexpr int kClients = 4;

std::uint64_t effective_seed(std::uint64_t param) {
  if (const char* env = std::getenv("TFR_PROP_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return param;
}

std::uint64_t txns_per_client() {
  if (const char* env = std::getenv("TFR_PROP_ITERS")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 200;
}

class TrackerPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrackerPropertyTest, InvariantsHoldUnderConcurrentCommitFlushInterleavings) {
  const std::uint64_t seed = effective_seed(GetParam());
  SCOPED_TRACE("property seed " + std::to_string(seed) +
               " — replay with TFR_PROP_SEED=" + std::to_string(seed));
  std::printf("[ property ] seed %llu%s, %llu txns/client\n",
              static_cast<unsigned long long>(seed),
              std::getenv("TFR_PROP_SEED") ? " (from TFR_PROP_SEED)" : "",
              static_cast<unsigned long long>(txns_per_client()));
  const std::uint64_t n_txns = txns_per_client();

  std::mutex registry_mu;
  std::map<std::string, Timestamp> registry;  // guarded by registry_mu

  // Oracle model. The mutex plays the role of the timestamp oracle's
  // critical section: commit-ts assignment, the unflushed-set insert, and
  // on_commit_ts happen atomically, matching the ordering contract in
  // flush_tracker.h.
  std::mutex model_mu;
  Timestamp oracle_ts = 0;
  std::vector<std::set<Timestamp>> unflushed(kClients);   // committed, not yet flushed
  std::vector<std::vector<Timestamp>> flushable(kClients);  // awaiting the flusher

  std::vector<std::unique_ptr<FlushTracker>> trackers;
  std::vector<std::string> ids;
  for (int c = 0; c < kClients; ++c) {
    trackers.push_back(std::make_unique<FlushTracker>(kNoTimestamp));
    ids.push_back("client-" + std::to_string(c));
    registry[ids.back()] = kNoTimestamp;
  }

  std::atomic<int> committers_live{kClients};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  for (int c = 0; c < kClients; ++c) {
    // Committer: assigns commit timestamps from the shared oracle.
    threads.emplace_back([&, c] {
      Rng rng(seed ^ (0x1000ULL + static_cast<std::uint64_t>(c)));
      for (std::uint64_t i = 0; i < n_txns; ++i) {
        {
          std::lock_guard<std::mutex> lock(model_mu);
          const Timestamp ts = ++oracle_ts;
          unflushed[static_cast<std::size_t>(c)].insert(ts);
          trackers[static_cast<std::size_t>(c)]->on_commit_ts(ts);
          flushable[static_cast<std::size_t>(c)].push_back(ts);
        }
        if (rng.next_bool(0.3)) std::this_thread::yield();
      }
      committers_live.fetch_sub(1);
    });

    // Flusher: completes flushes in random order. The model erase happens
    // before on_flushed, so the unflushed set over-approximates reality —
    // the checker's bound is conservative, never stale.
    threads.emplace_back([&, c] {
      Rng rng(seed ^ (0x2000ULL + static_cast<std::uint64_t>(c)));
      for (;;) {
        Timestamp ts = kNoTimestamp;
        {
          std::lock_guard<std::mutex> lock(model_mu);
          auto& pool = flushable[static_cast<std::size_t>(c)];
          if (pool.empty()) {
            if (committers_live.load() == 0) return;
          } else {
            const std::size_t pick =
                static_cast<std::size_t>(rng.next_below(pool.size()));
            ts = pool[pick];
            pool[pick] = pool.back();
            pool.pop_back();
            unflushed[static_cast<std::size_t>(c)].erase(ts);
          }
        }
        if (ts == kNoTimestamp) {
          std::this_thread::yield();
          continue;
        }
        trackers[static_cast<std::size_t>(c)]->on_flushed(ts);
      }
    });

    // Advancer: the heartbeat. Checks TF(c) monotonicity and mirrors every
    // advance into the shared registry, exactly like poll_tick's ingest.
    threads.emplace_back([&, c] {
      Timestamp last = kNoTimestamp;
      while (!stop.load(std::memory_order_acquire)) {
        Timestamp cur;
        {
          std::lock_guard<std::mutex> lock(model_mu);
          cur = oracle_ts;
        }
        const Timestamp tf = trackers[static_cast<std::size_t>(c)]->advance(cur);
        EXPECT_GE(tf, last) << "TF(" << ids[static_cast<std::size_t>(c)]
                            << ") regressed";
        last = tf;
        std::lock_guard<std::mutex> lock(registry_mu);
        Timestamp& entry = registry[ids[static_cast<std::size_t>(c)]];
        entry = std::max(entry, tf);
        std::this_thread::yield();
      }
    });
  }

  // Checker: TF(c) must stay strictly below the oldest unflushed commit —
  // a transaction still in the model set has never been handed to
  // on_flushed, so no correct threshold may cover it.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (int c = 0; c < kClients; ++c) {
        std::lock_guard<std::mutex> lock(model_mu);
        const auto& pending = unflushed[static_cast<std::size_t>(c)];
        if (!pending.empty()) {
          const Timestamp oldest = *pending.begin();
          EXPECT_LT(trackers[static_cast<std::size_t>(c)]->tf(), oldest)
              << "TF(" << ids[static_cast<std::size_t>(c)]
              << ") covers an unflushed transaction";
        }
      }
      std::this_thread::yield();
    }
  });

  // Quiesce: committers and flushers drain on their own; give the
  // advancers one settled oracle snapshot so the idle fast-path can carry
  // every TF(c) to the final timestamp, then stop the pollers.
  // Joining in order: the first kClients*3 threads include the committers
  // and flushers, which exit by themselves.
  while (committers_live.load() != 0) std::this_thread::yield();
  for (;;) {
    bool drained = true;
    {
      std::lock_guard<std::mutex> lock(model_mu);
      for (const auto& pending : unflushed) drained = drained && pending.empty();
    }
    if (drained) break;
    std::this_thread::yield();
  }
  // All flushes are in; one more advance round lets every tracker reach the
  // final oracle timestamp before the advancers stop.
  Timestamp final_ts;
  {
    std::lock_guard<std::mutex> lock(model_mu);
    final_ts = oracle_ts;
  }
  for (;;) {
    bool settled = true;
    for (const auto& t : trackers) settled = settled && t->tf() >= final_ts;
    if (settled) break;
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  // At quiesce the registry holds exactly each client's final TF(c).
  ASSERT_EQ(registry.size(), static_cast<std::size_t>(kClients));
  for (int c = 0; c < kClients; ++c) {
    const Timestamp tf = trackers[static_cast<std::size_t>(c)]->tf();
    EXPECT_EQ(tf, final_ts) << ids[static_cast<std::size_t>(c)]
                            << " did not drain to the final oracle ts";
    EXPECT_EQ(registry[ids[static_cast<std::size_t>(c)]], tf);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrackerPropertyTest,
                         ::testing::Values(0xA11CEULL, 0xB0B5EEDULL));

}  // namespace
}  // namespace tfr
