// The seeded-soak harness behind soak_test.cpp's failure schedules (chaos,
// cascade, split, zombie). It owns what every schedule shares: the seed, the
// transactional writers and their reference model, one invariant monitor, the
// drain and the durability/atomicity audit. A schedule owns only its
// TestbedConfig, its fault rules, its crash, RM-restart or partition script
// and its own checks.
//
// Seeds: a schedule instantiates one test per seed 1..N, N from
// TFR_SOAK_SEEDS (scripts/check.sh soak <kind> sets it) or the schedule's
// ctest default. TFR_CHAOS_SEED=<seed> replays one schedule in place of the
// parameter (scripts/replay_seed_corpus.sh runs the /0 instance that way).
//
// The monitor samples, every millisecond, the DESIGN.md §5 and §8 invariants:
//   * monotonicity — published TF and TP never regress
//   * ordering     — TP <= TF at every observation
//   * GC floor     — the TM log's GC watermark never overtakes the published
//                    TP or any live recovery floor (pending-region TPr,
//                    client TFr)
// and the audit checks, once the schedule has drained:
//   * durability   — every committed transaction is readable (model check)
//   * atomicity    — cross-region write-sets are never torn
//   * liveness     — flushes drain and TF reaches the newest commit
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/fault.h"
#include "src/common/metrics.h"
#include "src/common/random.h"
#include "src/testbed/testbed.h"

namespace tfr::soak {

/// N for a schedule's seeds 1..N: TFR_SOAK_SEEDS when it holds a positive
/// count, otherwise `fallback` (the schedule's ctest default).
inline std::uint64_t seed_count(std::uint64_t fallback) {
  if (const char* env = std::getenv("TFR_SOAK_SEEDS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) return static_cast<std::uint64_t>(n);
  }
  return fallback;
}

/// The seed this instance runs: TFR_CHAOS_SEED when set, else `param`.
/// Printed on pass too, so a replay confirms which schedule ran.
inline std::uint64_t run_seed(const char* kind, std::uint64_t param) {
  const char* env = std::getenv("TFR_CHAOS_SEED");
  const std::uint64_t seed = env != nullptr ? std::strtoull(env, nullptr, 10) : param;
  std::printf("[ %-8s ] seed %llu%s\n", kind, static_cast<unsigned long long>(seed),
              env != nullptr ? " (from TFR_CHAOS_SEED)" : "");
  return seed;
}

/// The SCOPED_TRACE text that tells a failing run how to replay it.
inline std::string replay_hint(const char* kind, std::uint64_t seed) {
  return std::string(kind) + " seed " + std::to_string(seed) +
         " — replay with TFR_CHAOS_SEED=" + std::to_string(seed);
}

/// The writers' transactions on table "t": one writer per testbed client,
/// single-row writes to rows [0, 200), and every `pair_every`-th transaction
/// a cross-region pair p, p + pair_offset written with one value.
struct Traffic {
  /// Per writer; a run-until-stopped schedule sets a cap and calls
  /// Soak::stop_writers().
  int txns_per_thread;
  /// Writer t draws from Rng(seed * seed_multiplier + t).
  std::uint64_t seed_multiplier;
  int pair_every;
  std::uint64_t pair_offset;
  /// 0: p is unique per (writer, txn), so each pair row is written once.
  /// Otherwise p is drawn from [200, 200 + pair_rows): every writer of p
  /// writes p + pair_offset with the same value, so the pair stays equal
  /// under last-writer-wins.
  std::uint64_t pair_rows = 0;
  /// Bytes appended to every value.
  std::size_t pad = 0;
};

class Soak {
 public:
  Soak(const char* kind, std::uint64_t param)
      : seed_(run_seed(kind, param)), trace_(__FILE__, __LINE__, replay_hint(kind, seed_)) {}

  ~Soak() {
    stop_writers();
    stop_monitor();
  }
  Soak(const Soak&) = delete;
  Soak& operator=(const Soak&) = delete;

  /// fast_test_config with two flusher threads per client.
  static TestbedConfig config(int servers, int clients) {
    TestbedConfig cfg = fast_test_config(servers, clients);
    cfg.client.flusher_threads = 2;
    return cfg;
  }

  std::uint64_t seed() const { return seed_; }
  Testbed& bed() { return *bed_; }
  /// Live recovery floors the monitor has seen.
  std::int64_t floor_samples() const { return floor_samples_.load(std::memory_order_relaxed); }

  /// Start a testbed and create table "t" pre-split into `regions`.
  void open(const TestbedConfig& cfg, std::uint64_t rows, int regions) {
    bed_ = std::make_unique<Testbed>(cfg);
    ASSERT_TRUE(bed_->start().is_ok());
    ASSERT_TRUE(bed_->create_table("t", rows, regions).is_ok());
  }

  /// Start the monitor, then the writers.
  void start(const Traffic& traffic) {
    monitor_ = std::thread([this] { monitor(); });
    for (int t = 0; t < bed_->num_clients(); ++t) {
      writers_.emplace_back([this, traffic, t] {
        write(traffic, t, seed_ * traffic.seed_multiplier + static_cast<std::uint64_t>(t));
      });
    }
  }

  /// Testbed::restart_recovery_manager() with the monitor held off: the
  /// restart destroys the instance Testbed::rm() returns, so the monitor's
  /// floor read and the swap must not overlap.
  void restart_recovery_manager() {
    std::lock_guard lock(rm_mutex_);
    bed_->restart_recovery_manager();
  }

  void join_writers() {
    for (auto& w : writers_) {
      if (w.joinable()) w.join();
    }
  }

  void stop_writers() {
    stop_writers_.store(true, std::memory_order_release);
    join_writers();
  }

  /// Wait out recovery and drain every live client's flushes BEFORE lifting
  /// the fault rules, so every committed write-set's RPC applies ran under
  /// injection. Partitions stay armed (FaultInjector::clear_rules).
  void drain() {
    join_writers();
    bed_->wait_for_recovery();
    for (int c = 0; c < bed_->num_clients(); ++c) {
      if (bed_->client(c).crashed()) continue;
      ASSERT_TRUE(bed_->client(c).wait_flushed(seconds(60))) << "client " << c;
    }
    bed_->fault().clear_rules();
  }

  /// Wait for TF to reach the newest commit, run `settle` while the monitor
  /// still watches, then stop the monitor and audit the store against the
  /// model.
  void audit(const std::function<void()>& settle = {}) {
    ASSERT_TRUE(bed_->wait_stable(max_committed_, seconds(60)));
    if (settle) {
      settle();
      if (::testing::Test::HasFatalFailure()) return;
    }
    stop_monitor();
    {
      std::lock_guard lock(mutex_);
      EXPECT_TRUE(violations_.empty())
          << violations_.size() << " invariant violations, first: " << violations_.front();
    }
    // Post-recovery threshold sanity, including the GC bound.
    const auto tp = bed_->coord().get(kTpPath);
    const auto tf = bed_->coord().get(kTfPath);
    ASSERT_TRUE(tf.has_value());
    ASSERT_TRUE(tp.has_value());
    EXPECT_LE(*tp, *tf);
    EXPECT_LE(bed_->tm().log().gc_watermark(), *tp);

    int reader = 0;
    while (bed_->client(reader).crashed()) ++reader;
    Transaction r = bed_->client(reader).begin("t");
    // --- durability: the store matches the reference model ------------------
    // A write acked by a fenced zombie would show here as a row whose
    // visible value disagrees with the committed-transaction model.
    std::size_t checked = 0;
    for (const auto& [row, expected] : model_) {
      auto v = r.get(row, "c");
      ASSERT_TRUE(v.is_ok()) << row;
      ASSERT_TRUE(v.value().has_value()) << "committed row lost: " << row;
      EXPECT_EQ(*v.value(), expected.second) << row;
      ++checked;
    }
    // --- atomicity: no torn cross-region write-sets -------------------------
    for (const auto& [a, b] : pairs_) {
      auto va = r.get(a, "c");
      auto vb = r.get(b, "c");
      ASSERT_TRUE(va.is_ok() && vb.is_ok());
      ASSERT_TRUE(va.value().has_value() && vb.value().has_value()) << "torn pair " << a;
      EXPECT_EQ(*va.value(), *vb.value()) << "torn pair " << a;
    }
    r.abort();
    EXPECT_GT(checked, 0u);

    EXPECT_GT(bed_->fault().stats().evaluations, 0);
    // A WAL-split give-up would have silently dropped durable edits.
    EXPECT_EQ(global_counter("master.wal_split_failures").get(), 0);
    // A crash may be taken over on proof; the probe must never take a
    // running server for a crashed one.
    EXPECT_EQ(global_counter("master.proof_takeovers_of_live_servers").get(), 0)
        << "a proof takeover hit a server that was still live";
  }

 private:
  static constexpr std::uint64_t kSingleRows = 200;

  void write(const Traffic& traffic, int t, std::uint64_t thread_seed) {
    Rng trng(thread_seed);
    TxnClient& client = bed_->client(t);
    const std::string pad(traffic.pad, 'x');
    for (int i = 0; i < traffic.txns_per_thread; ++i) {
      if (stop_writers_.load(std::memory_order_acquire) || client.crashed()) break;
      Transaction txn = client.begin("t");
      std::vector<Mutation> muts;
      const bool pair_txn = i % traffic.pair_every == 0;
      if (pair_txn) {
        const std::uint64_t p =
            kSingleRows + (traffic.pair_rows == 0
                               ? static_cast<std::uint64_t>(t * traffic.txns_per_thread + i)
                               : trng.next_below(traffic.pair_rows));
        const std::string value = "pair-" + std::to_string(t) + "-" + std::to_string(i) + pad;
        for (std::uint64_t row : {p, p + traffic.pair_offset}) {
          txn.put(Testbed::row_key(row), "c", value);
          muts.push_back(Mutation{Testbed::row_key(row), "c", value, false});
        }
      } else {
        const std::string row = Testbed::row_key(trng.next_below(kSingleRows));
        const std::string value = "s" + std::to_string(t) + "-" + std::to_string(i) + pad;
        txn.put(row, "c", value);
        muts.push_back(Mutation{row, "c", value, false});
      }
      auto ts = txn.commit();
      if (!ts.is_ok()) continue;  // not committed -> not durable, not modeled
      std::lock_guard lock(mutex_);
      for (const auto& m : muts) {
        auto it = model_.find(m.row);
        if (it == model_.end() || ts.value() >= it->second.first) {
          model_[m.row] = {ts.value(), m.value};
        }
      }
      if (pair_txn) pairs_.emplace_back(muts[0].row, muts[1].row);
      max_committed_ = std::max(max_committed_, ts.value());
    }
  }

  // Reads the GC watermark FIRST, then the floor, TP and TF. The watermark
  // and TF only grow and, at every instant, watermark <= published TP <=
  // every live recovery floor and TP <= TF, so a later-read floor or TP
  // below an earlier-read watermark, or an earlier-read TP above a
  // later-read TF, is a real violation, never a sampling artifact.
  void monitor() {
    Timestamp last_tf = kNoTimestamp;
    Timestamp last_tp = kNoTimestamp;
    while (!monitor_stop_.load(std::memory_order_acquire)) {
      const Timestamp gc_mark = bed_->tm().log().gc_watermark();
      const Timestamp floor = [&] {
        std::lock_guard lock(rm_mutex_);
        return bed_->rm().min_recovery_floor();
      }();
      const auto tp = bed_->coord().get(kTpPath);
      const auto tf = bed_->coord().get(kTfPath);
      if (floor != kMaxTimestamp) floor_samples_.fetch_add(1, std::memory_order_relaxed);
      auto violation = [&](const std::string& what, Timestamp a, const char* rel, Timestamp b) {
        std::lock_guard lock(mutex_);
        violations_.push_back(what + " " + std::to_string(a) + rel + std::to_string(b));
      };
      if (tf && *tf < last_tf) violation("TF regressed:", last_tf, " -> ", *tf);
      if (tp && *tp < last_tp) violation("TP regressed:", last_tp, " -> ", *tp);
      if (tf && tp && *tp > *tf) violation("TP", *tp, " > TF ", *tf);
      if (floor != kMaxTimestamp && gc_mark > floor) {
        violation("GC watermark", gc_mark, " overtook live recovery floor ", floor);
      }
      if (tp && gc_mark > *tp) violation("GC watermark", gc_mark, " overtook published TP ", *tp);
      if (tf) last_tf = *tf;
      if (tp) last_tp = *tp;
      sleep_micros(millis(1));
    }
  }

  void stop_monitor() {
    monitor_stop_.store(true, std::memory_order_release);
    if (monitor_.joinable()) monitor_.join();
  }

  const std::uint64_t seed_;
  ::testing::ScopedTrace trace_;
  std::unique_ptr<Testbed> bed_;

  std::mutex rm_mutex_;  // the monitor's floor read vs an RM restart
  std::mutex mutex_;     // guards the model and the violations
  std::map<std::string, std::pair<Timestamp, std::string>> model_;  // row -> (ts, value)
  std::vector<std::pair<std::string, std::string>> pairs_;          // committed pairs
  Timestamp max_committed_ = 0;
  std::vector<std::string> violations_;

  std::atomic<bool> stop_writers_{false};
  std::atomic<bool> monitor_stop_{false};
  std::atomic<std::int64_t> floor_samples_{0};
  std::vector<std::thread> writers_;
  std::thread monitor_;
};

}  // namespace tfr::soak
