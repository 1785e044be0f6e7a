// Cascading-failure soak — the bounded-recovery tentpole test. A second
// region server crashes while the first server's recovery is still in
// flight: the paper's Algorithm 4 never stress-tests this, but it is where
// the TP-inheritance rule (TP(s') := min(TP(s'), TP(s))) earns its keep.
// The first failure floors the global TP at TPr(s1); if the log's segment
// GC ever ran ahead of that floor, the write-sets the *second* recovery
// must re-fetch (bounded by TPr(s2), which may have been inherited from
// s1) would already be deleted.
//
// The run drives a concurrent transactional workload with aggressive log
// segmentation and GC underneath gray failures (transient RPC errors, slow
// WAL syncs, flaky split reads) and asserts the DESIGN.md §5 invariants:
//   * durability   — every committed transaction is readable (model check)
//   * atomicity    — cross-region write-sets are never torn
//   * monotonicity — published TF and TP never regress (monitor thread)
//   * ordering     — TP <= TF at every observation
// plus the new §8 GC-floor invariant:
//   * no record at or below any live recovery floor (pending-region TPr or
//     client TFr) is ever physically deleted by segment GC, and the GC
//     watermark never overtakes the published TP.
//
// Seed count: 3 by default (ctest smoke); a soak sets TFR_CASCADE_SEEDS=N
// (check.sh soak-recovery runs 20 under TSan). Reproduce one schedule with:
//   TFR_CHAOS_SEED=<seed> ./integration_tests --gtest_filter='Seeds/CascadeSoakTest.*'
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

constexpr std::uint64_t kRows = 800;       // 8 regions, splits every 100 rows
constexpr std::uint64_t kSingleRows = 200; // single-row txns draw from [0, 200)
constexpr int kWriterThreads = 3;
constexpr int kTxnsPerThread = 40;
constexpr int kNumServers = 4;  // two may die and regions still have homes

class CascadeSoakTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CascadeSoakTest, SecondFailureDuringRecoveryNeverLosesGcdWriteSets) {
  const std::uint64_t seed = soak::run_seed("cascade", GetParam());
  SCOPED_TRACE(soak::replay_hint("cascade", seed));
  Rng rng(seed);

  TestbedConfig cfg = fast_test_config(kNumServers, kWriterThreads);
  cfg.client.flusher_threads = 2;
  // Tiny memstores spill to store files mid-schedule; tiny, fast-GC'd log
  // segments make the GC-floor invariant a live race instead of a no-op —
  // without the pending-region floors, the GC would delete replayable
  // write-sets within a couple of milliseconds of TP advancing.
  cfg.cluster.server.memstore_flush_bytes = 512;
  cfg.txn_log.segment_records = 24;
  cfg.txn_log.gc_interval = millis(2);
  Testbed bed(cfg);
  ASSERT_TRUE(bed.start().is_ok());
  ASSERT_TRUE(bed.create_table("t", kRows, 8).is_ok());

  // --- the fault schedule, all derived from the seed ------------------------
  bed.fault().reseed(seed);
  {
    FaultRule rpc;  // lost requests, lost acks, corrupted frames
    rpc.op = FaultOp::kRpcApply;
    rpc.error_probability = 0.08;
    rpc.drop_response_probability = 0.04;
    rpc.corrupt_probability = 0.04;
    bed.fault().add_rule(rpc);

    FaultRule slow_sync;  // the slow-disk gray failure
    slow_sync.op = FaultOp::kDfsSync;
    slow_sync.target = "/wal/";
    slow_sync.delay_probability = 0.5;
    slow_sync.delay = millis(1);
    bed.fault().add_rule(slow_sync);

    // Flaky and slow WAL-split reads stretch the first server's recovery,
    // widening the window in which the second crash lands mid-replay.
    FaultRule flaky_split;
    flaky_split.op = FaultOp::kDfsRead;
    flaky_split.target = "/wal/";
    flaky_split.error_probability = 0.05;
    flaky_split.delay_probability = 0.5;
    flaky_split.delay = millis(1);
    bed.fault().add_rule(flaky_split);
  }

  // --- reference model of successfully committed transactions ---------------
  std::mutex model_mutex;
  std::map<std::string, std::pair<Timestamp, std::string>> model;  // row -> (ts, value)
  std::vector<std::pair<std::string, std::string>> committed_pairs;
  Timestamp max_committed = 0;

  auto writer = [&](int t, std::uint64_t thread_seed) {
    Rng trng(thread_seed);
    TxnClient& client = bed.client(t);
    for (int i = 0; i < kTxnsPerThread; ++i) {
      if (client.crashed()) break;
      Transaction txn = client.begin("t");
      std::vector<Mutation> muts;
      const bool pair_txn = i % 5 == 0;
      if (pair_txn) {
        // Cross-region atomicity probe: two rows 300 apart land in different
        // regions; the (t, i) key makes each pair row written exactly once.
        const std::uint64_t p =
            kSingleRows + static_cast<std::uint64_t>(t * kTxnsPerThread + i);
        const std::string value = "pair-" + std::to_string(t) + "-" + std::to_string(i);
        for (std::uint64_t row : {p, p + 400}) {
          txn.put(Testbed::row_key(row), "c", value);
          muts.push_back(Mutation{Testbed::row_key(row), "c", value, false});
        }
      } else {
        const std::string row = Testbed::row_key(trng.next_below(kSingleRows));
        const std::string value =
            "s" + std::to_string(t) + "-" + std::to_string(i);
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

  // --- invariant monitor -----------------------------------------------------
  // §5: reads TP before TF (TF only grows, so tp <= tf must hold at every
  // observation) and both must be monotone. §8: reads the GC watermark
  // FIRST, then the floors — the watermark only grows and, at every
  // instant, watermark <= published TP <= every live recovery floor, so a
  // later-read floor or TP below an earlier-read watermark is a real
  // violation, never a sampling artifact.
  std::atomic<bool> monitor_stop{false};
  std::atomic<std::int64_t> floor_samples{0};
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
      if (floor != kMaxTimestamp) floor_samples.fetch_add(1, std::memory_order_relaxed);
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

  // --- the cascading crash schedule, also seed-derived -----------------------
  sleep_micros(millis(10 + static_cast<std::int64_t>(rng.next_below(25))));
  const int first_victim = static_cast<int>(rng.next_below(kNumServers));
  const int second_victim =
      (first_victim + 1 + static_cast<int>(rng.next_below(kNumServers - 1))) % kNumServers;
  bed.crash_server(first_victim);
  // The moment the RM has *started* handling the first failure — its
  // pending-region floors are installed, the split/replay is in flight —
  // kill the second server, optionally after a tiny seed-derived delay so
  // the second crash lands at varying depths of the first recovery.
  ASSERT_TRUE(bed.wait_server_recoveries(1));
  sleep_micros(static_cast<std::int64_t>(rng.next_below(4000)));
  bed.crash_server(second_victim);
  ASSERT_TRUE(bed.wait_server_recoveries(2));

  for (auto& w : writers) w.join();
  bed.wait_for_recovery();

  // Drain the surviving clients' flushes BEFORE lifting the fault rules, so
  // every committed write-set's RPC applies ran under injection.
  for (int c = 0; c < kWriterThreads; ++c) {
    ASSERT_TRUE(bed.client(c).wait_flushed(seconds(60))) << "client " << c;
  }
  bed.fault().clear_rules();
  ASSERT_TRUE(bed.wait_stable(max_committed, seconds(60)));

  // Settle until segment GC has actually reclaimed something. GC is
  // asynchronous: its floor only advances once every server's memstore
  // residue is flushed and the RM's next poll republishes TP, so on a slow
  // build (TSan) the tail segments can still be live here even though the
  // run was clean. Row 780 is outside every writer's key range, so the
  // settle commits never disturb the reference model. The vacuity guard
  // below still fires if GC genuinely cannot reclaim.
  for (const Micros settle_deadline = now_micros() + seconds(30);
       bed.tm().log().stats().gc_segments == 0 && now_micros() < settle_deadline;) {
    ASSERT_TRUE(bed.flush_all_memstores().is_ok());
    Transaction settle = bed.client(0).begin("t");
    settle.put(Testbed::row_key(780), "c", "settle");
    (void)settle.commit();
    sleep_micros(millis(5));
  }

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

  // The schedule must actually have exercised what it claims to: both
  // recoveries ran (the second while floors from the first could still be
  // live), the monitor observed live recovery floors, the segmented log
  // actually sealed and reclaimed segments, and no split was abandoned (a
  // give-up would have silently dropped durable edits).
  EXPECT_GE(bed.rm().stats().server_recoveries, 2);
  EXPECT_GT(floor_samples.load(std::memory_order_relaxed), 0)
      << "monitor never saw a live recovery floor — the schedule missed the window";
  const auto log_stats = bed.tm().log().stats();
  EXPECT_GT(log_stats.gc_segments, 0)
      << "segment GC never ran; the invariant was vacuous (tp=" << bed.rm().global_tp()
      << " tf=" << bed.rm().global_tf() << " floor=" << bed.rm().min_recovery_floor()
      << " segments=" << log_stats.segments << " — a pinned TP here usually means a dead "
      << "server's TP(s) registry entry was resurrected)";
  const FaultStats fs = bed.fault().stats();
  EXPECT_GT(fs.evaluations, 0);
  EXPECT_EQ(global_counter("master.wal_split_failures").get(), 0);
  // A crash here may be taken over on proof; the probe must never take
  // a running server for a crashed one.
  EXPECT_EQ(global_counter("master.proof_takeovers_of_live_servers").get(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CascadeSoakTest,
                         ::testing::Range<std::uint64_t>(
                             1, 1 + soak::seed_count("TFR_CASCADE_SEEDS", 3)));

}  // namespace
}  // namespace tfr
