// Dynamic-topology soak — §9's robustness gauntlet. The master balancer
// splits, merges, and moves regions ON ITS OWN, on a fast tick, while a
// concurrent transactional workload runs, gray failures inject RPC/DFS
// faults, and a region server crash-fails mid-schedule. Every transition
// races failure recovery: a split can land on a region whose replay floor
// is still pinned (the daughters must min-inherit it), recovery can fence a
// region the balancer is mid-split on (the transition must abort cleanly),
// and the TM-log GC must never reclaim a write-set any daughter still has
// to replay.
//
// Asserted invariants (DESIGN.md §5 + §8, sampled by a monitor thread):
//   * durability   — every committed transaction is readable (model check)
//   * atomicity    — cross-region write-sets are never torn
//   * monotonicity — published TF and TP never regress
//   * ordering     — TP <= TF at every observation
//   * GC floor     — the log GC watermark never overtakes published TP or
//                    any live recovery floor
// plus: the balancer actually split regions during the run, and no WAL
// split was abandoned.
//
// Seed count: 3 by default (ctest smoke); check.sh soak-split runs 20 under
// TSan via TFR_SPLIT_SEEDS=N. Reproduce one schedule with:
//   TFR_CHAOS_SEED=<seed> ./integration_tests --gtest_filter='Seeds/SplitSoakTest.*'
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/fault.h"
#include "src/common/metrics.h"
#include "src/common/random.h"
#include "src/testbed/testbed.h"
#include "tests/integration/soak_seed.h"

namespace tfr {
namespace {

constexpr std::uint64_t kRows = 400;        // 2 initial regions
constexpr std::uint64_t kSingleRows = 200;  // single-row txns draw from [0, 200)
constexpr int kWriterThreads = 3;
constexpr int kTxnsPerThread = 30;
constexpr int kNumServers = 4;

class SplitSoakTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SplitSoakTest, TopologyChurnDuringFailuresKeepsInvariants) {
  const std::uint64_t seed = soak::run_seed("split", GetParam());
  SCOPED_TRACE(soak::replay_hint("split", seed));
  Rng rng(seed);

  const std::int64_t splits_before = global_counter("master.region_splits").get();
  const std::int64_t merges_before = global_counter("master.region_merges").get();
  const std::int64_t moves_before = global_counter("master.region_moves").get();

  TestbedConfig cfg = fast_test_config(kNumServers, kWriterThreads);
  cfg.client.flusher_threads = 2;
  // Tiny memstores spill to store files quickly so the size trigger has
  // something to measure; tiny fast-GC'd log segments make the GC-floor
  // invariant a live race across every floor migration.
  cfg.cluster.server.memstore_flush_bytes = 512;
  cfg.txn_log.segment_records = 24;
  cfg.txn_log.gc_interval = millis(2);
  // The balancer on an aggressive tick: size splits at ~3 store-file spills,
  // merges only for genuinely cold small pairs (hysteresis: the merged
  // region stays under the split threshold), traffic moves plus region-count
  // evening. Two actions per tick keeps a single tick's transition batch —
  // run under the balancer lock — short relative to the crash schedule.
  cfg.cluster.balancer.interval = millis(10);
  cfg.cluster.balancer.split_store_bytes = 1500;
  cfg.cluster.balancer.merge_traffic_ops = 4;
  cfg.cluster.balancer.merge_store_bytes = 800;
  cfg.cluster.balancer.move_load_ratio = 2.0;
  cfg.cluster.balancer.move_min_ops = 16;
  cfg.cluster.balancer.max_actions_per_tick = 2;
  Testbed bed(cfg);
  ASSERT_TRUE(bed.start().is_ok());
  ASSERT_TRUE(bed.create_table("t", kRows, 2).is_ok());

  // --- gray-failure schedule, all derived from the seed ----------------------
  bed.fault().reseed(seed);
  {
    FaultRule rpc;  // lost requests, lost acks, corrupted frames
    rpc.op = FaultOp::kRpcApply;
    rpc.error_probability = 0.05;
    rpc.drop_response_probability = 0.03;
    rpc.corrupt_probability = 0.03;
    bed.fault().add_rule(rpc);

    FaultRule slow_sync;  // the slow-disk gray failure
    slow_sync.op = FaultOp::kDfsSync;
    slow_sync.target = "/wal/";
    slow_sync.delay_probability = 0.5;
    slow_sync.delay = millis(1);
    bed.fault().add_rule(slow_sync);
  }

  // --- reference model of successfully committed transactions ---------------
  std::mutex model_mutex;
  std::map<std::string, std::pair<Timestamp, std::string>> model;  // row -> (ts, value)
  std::vector<std::pair<std::string, std::string>> committed_pairs;
  Timestamp max_committed = 0;

  auto writer = [&](int t, std::uint64_t thread_seed) {
    Rng trng(thread_seed);
    TxnClient& client = bed.client(t);
    // Fat values push regions over the split threshold within a few dozen
    // transactions, so topology churn overlaps the whole schedule.
    const std::string pad(48, 'x');
    for (int i = 0; i < kTxnsPerThread; ++i) {
      if (client.crashed()) break;
      Transaction txn = client.begin("t");
      std::vector<Mutation> muts;
      const bool pair_txn = i % 5 == 0;
      if (pair_txn) {
        // Atomicity probe: the (t, i) key makes each pair row written once.
        const std::uint64_t p =
            kSingleRows + static_cast<std::uint64_t>(t * kTxnsPerThread + i);
        const std::string value =
            "pair-" + std::to_string(t) + "-" + std::to_string(i) + pad;
        for (std::uint64_t row : {p, p + 150}) {
          txn.put(Testbed::row_key(row), "c", value);
          muts.push_back(Mutation{Testbed::row_key(row), "c", value, false});
        }
      } else {
        const std::string row = Testbed::row_key(trng.next_below(kSingleRows));
        const std::string value =
            "s" + std::to_string(t) + "-" + std::to_string(i) + pad;
        txn.put(row, "c", value);
        muts.push_back(Mutation{row, "c", value, false});
      }
      auto ts = txn.commit();
      if (!ts.is_ok()) continue;  // not committed -> not durable, not modeled
      std::lock_guard lock(model_mutex);
      for (const auto& m : muts) {
        auto it = model.find(m.row);
        if (it == model.end() || ts.value() >= it->second.first) {
          model[m.row] = {ts.value(), m.value};
        }
      }
      if (pair_txn) committed_pairs.emplace_back(muts[0].row, muts[1].row);
      max_committed = std::max(max_committed, ts.value());
    }
  };

  // --- §5/§8 invariant monitor (see cascade_soak_test for the read-order
  // argument: watermark first, floors after, so a violation is never a
  // sampling artifact) --------------------------------------------------------
  std::atomic<bool> monitor_stop{false};
  std::vector<std::string> violations;
  std::mutex violations_mutex;
  std::thread monitor([&] {
    Timestamp last_tf = kNoTimestamp;
    Timestamp last_tp = kNoTimestamp;
    while (!monitor_stop.load(std::memory_order_acquire)) {
      const Timestamp gc_mark = bed.tm().log().gc_watermark();
      const Timestamp floor = bed.rm().min_recovery_floor();
      const auto tp = bed.coord().get(kTpPath);
      const auto tf = bed.coord().get(kTfPath);
      std::lock_guard lock(violations_mutex);
      if (tf && *tf < last_tf) {
        violations.push_back("TF regressed: " + std::to_string(last_tf) + " -> " +
                             std::to_string(*tf));
      }
      if (tp && *tp < last_tp) {
        violations.push_back("TP regressed: " + std::to_string(last_tp) + " -> " +
                             std::to_string(*tp));
      }
      if (tf && tp && *tp > *tf) {
        violations.push_back("TP " + std::to_string(*tp) + " > TF " + std::to_string(*tf));
      }
      if (floor != kMaxTimestamp && gc_mark > floor) {
        violations.push_back("GC watermark " + std::to_string(gc_mark) +
                             " overtook live recovery floor " + std::to_string(floor));
      }
      if (tp && gc_mark > *tp) {
        violations.push_back("GC watermark " + std::to_string(gc_mark) +
                             " overtook published TP " + std::to_string(*tp));
      }
      if (tf) last_tf = *tf;
      if (tp) last_tp = *tp;
      sleep_micros(millis(1));
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kWriterThreads; ++t) {
    writers.emplace_back(writer, t, seed * 131 + static_cast<std::uint64_t>(t));
  }

  // --- crash a server while the balancer is churning -------------------------
  sleep_micros(millis(15 + static_cast<std::int64_t>(rng.next_below(30))));
  const int victim = static_cast<int>(rng.next_below(kNumServers));
  bed.crash_server(victim);
  ASSERT_TRUE(bed.wait_server_recoveries(1));

  for (auto& w : writers) w.join();
  bed.wait_for_recovery();

  // Drain the surviving clients' flushes BEFORE lifting the fault rules, so
  // every committed write-set's RPC applies ran under injection.
  for (int c = 0; c < kWriterThreads; ++c) {
    ASSERT_TRUE(bed.client(c).wait_flushed(seconds(60))) << "client " << c;
  }
  bed.fault().clear_rules();
  ASSERT_TRUE(bed.wait_stable(max_committed, seconds(60)));

  monitor_stop.store(true, std::memory_order_release);
  monitor.join();
  {
    std::lock_guard lock(violations_mutex);
    EXPECT_TRUE(violations.empty()) << violations.size() << " invariant violations, first: "
                                    << violations.front();
  }
  // Post-recovery threshold sanity, including the GC bound.
  {
    const auto tp = bed.coord().get(kTpPath);
    const auto tf = bed.coord().get(kTfPath);
    ASSERT_TRUE(tf.has_value());
    ASSERT_TRUE(tp.has_value());
    EXPECT_LE(*tp, *tf);
    EXPECT_LE(bed.tm().log().gc_watermark(), *tp);
  }

  // --- durability: the store matches the reference model --------------------
  Transaction r = bed.client(0).begin("t");
  std::size_t checked = 0;
  for (const auto& [row, expected] : model) {
    auto v = r.get(row, "c");
    ASSERT_TRUE(v.is_ok()) << row;
    ASSERT_TRUE(v.value().has_value()) << "committed row lost: " << row;
    EXPECT_EQ(*v.value(), expected.second) << row;
    ++checked;
  }
  // --- atomicity: no torn cross-region write-sets ---------------------------
  for (const auto& [a, b] : committed_pairs) {
    auto va = r.get(a, "c");
    auto vb = r.get(b, "c");
    ASSERT_TRUE(va.is_ok() && vb.is_ok());
    ASSERT_TRUE(va.value().has_value() && vb.value().has_value()) << "torn pair " << a;
    EXPECT_EQ(*va.value(), *vb.value()) << "torn pair " << a;
  }
  r.abort();
  EXPECT_GT(checked, 0u);

  // The schedule must have exercised what it claims: the balancer actually
  // split regions under load (merges and moves are opportunistic — logged,
  // not required), recovery ran, and no WAL split was abandoned.
  const std::int64_t splits = global_counter("master.region_splits").get() - splits_before;
  const std::int64_t merges = global_counter("master.region_merges").get() - merges_before;
  const std::int64_t moves = global_counter("master.region_moves").get() - moves_before;
  std::printf("[ split    ] seed %llu: %lld splits, %lld merges, %lld moves, %zu regions\n",
              static_cast<unsigned long long>(seed), static_cast<long long>(splits),
              static_cast<long long>(merges), static_cast<long long>(moves),
              bed.master().table_regions("t").size());
  EXPECT_GT(splits, 0) << "balancer never split a region — the soak was vacuous";
  EXPECT_GE(bed.rm().stats().server_recoveries, 1);
  const FaultStats fs = bed.fault().stats();
  EXPECT_GT(fs.evaluations, 0);
  EXPECT_EQ(global_counter("master.wal_split_failures").get(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplitSoakTest,
                         ::testing::Range<std::uint64_t>(
                             1, 1 + soak::seed_count("TFR_SPLIT_SEEDS", 3)));

}  // namespace
}  // namespace tfr
