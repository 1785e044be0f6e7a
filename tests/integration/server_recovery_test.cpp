// §3.2 — server failure handling: store-internal WAL-split recovery, the
// region gate, transactional replay after TPr(s), TP inheritance across
// cascading failures, and interrupted client flushes.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "src/common/fault.h"
#include "src/common/metrics.h"
#include "src/testbed/testbed.h"

namespace tfr {
namespace {

class ServerRecoveryTest : public ::testing::Test {
 protected:
  ServerRecoveryTest() : bed_(config()) {}

  static TestbedConfig config() {
    TestbedConfig cfg = fast_test_config(3, 1);
    // Keep the WAL syncer effectively off so a crash reliably loses the
    // in-memory tail (the paper's asynchronous-persistence window).
    cfg.cluster.server.wal_sync_interval = seconds(100);
    return cfg;
  }

  void SetUp() override {
    ASSERT_TRUE(bed_.start().is_ok());
    ASSERT_TRUE(bed_.create_table("t", 3000, 6).is_ok());
  }

  std::vector<Timestamp> commit_rows(int from, int to) {
    std::vector<Timestamp> out;
    for (int i = from; i < to; ++i) {
      Transaction txn = bed_.client().begin("t");
      txn.put(Testbed::row_key(i), "c", "value-" + std::to_string(i));
      auto ts = txn.commit();
      EXPECT_TRUE(ts.is_ok());
      out.push_back(ts.value_or(kNoTimestamp));
    }
    return out;
  }

  void verify_rows(int from, int to) {
    Transaction r = bed_.client().begin("t");
    for (int i = from; i < to; ++i) {
      auto v = r.get(Testbed::row_key(i), "c");
      ASSERT_TRUE(v.is_ok());
      ASSERT_TRUE(v.value().has_value()) << "lost committed row " << i;
      EXPECT_EQ(*v.value(), "value-" + std::to_string(i));
    }
    r.abort();
  }

  /// Index of the server hosting `row`.
  int host_of(const std::string& row) {
    auto loc = bed_.master().locate("t", row);
    EXPECT_TRUE(loc.is_ok());
    for (int i = 0; i < bed_.cluster().num_servers(); ++i) {
      if (loc.is_ok() && bed_.cluster().server(i).id() == loc.value().server_id) return i;
    }
    ADD_FAILURE() << "no server hosts " << row;
    return 0;
  }

  /// Fail every WAL sync of server i: its TP(s) never advances, so a crash
  /// leaves every write-set it received to the gate replay.
  void fail_wal_syncs(int i) {
    FaultRule rule;
    rule.op = FaultOp::kDfsSync;
    rule.target = bed_.cluster().server(i).wal_path();
    rule.error_probability = 1.0;
    bed_.fault().add_rule(rule);
  }

  Testbed bed_;
};

TEST_F(ServerRecoveryTest, UnpersistedWritesSurviveServerCrash) {
  auto tss = commit_rows(0, 60);
  ASSERT_TRUE(bed_.client().wait_flushed());
  // Nothing has been WAL-synced: the crash loses every memstore update, and
  // only the TM-log replay can bring them back.
  bed_.crash_server(0);
  ASSERT_TRUE(bed_.wait_server_recoveries(1));
  bed_.wait_for_recovery();
  ASSERT_GE(bed_.rm().stats().server_recoveries, 1);

  ASSERT_TRUE(bed_.client().wait_flushed());
  ASSERT_TRUE(bed_.wait_stable(tss.back()));
  verify_rows(0, 60);
}

TEST_F(ServerRecoveryTest, RecoveryDoesNotDisturbSurvivingServers) {
  auto tss = commit_rows(0, 30);
  ASSERT_TRUE(bed_.client().wait_flushed());
  const auto victim_regions = bed_.cluster().server(0).region_names();
  bed_.crash_server(0);
  ASSERT_TRUE(bed_.wait_server_recoveries(1));
  bed_.wait_for_recovery();
  // Regions that were NOT on the victim stayed where they were.
  for (const auto& loc : bed_.master().table_regions("t")) {
    if (std::find(victim_regions.begin(), victim_regions.end(), loc.region_name) ==
        victim_regions.end()) {
      EXPECT_NE(loc.server_id, "rs1");
    }
  }
  ASSERT_TRUE(bed_.wait_stable(tss.back()));
  verify_rows(0, 30);
}

TEST_F(ServerRecoveryTest, OnlyWritesetsAfterTprAreReplayed) {
  // Persist a first batch everywhere and let TP advance past it; commit a
  // second batch that stays unpersisted, then crash. Only the second batch
  // should be replayed.
  auto first = commit_rows(0, 20);
  ASSERT_TRUE(bed_.client().wait_flushed());
  ASSERT_TRUE(bed_.wait_stable(first.back()));
  const Micros deadline = now_micros() + seconds(10);
  while (bed_.rm().global_tp() < first.back() && now_micros() < deadline) {
    for (int s = 0; s < bed_.cluster().num_servers(); ++s) {
      bed_.cluster().server(s).heartbeat_now();
    }
    bed_.rm().refresh_now();
    sleep_millis(1);
  }
  ASSERT_GE(bed_.rm().global_tp(), first.back());

  auto second = commit_rows(20, 40);
  ASSERT_TRUE(bed_.client().wait_flushed());
  bed_.crash_server(0);
  ASSERT_TRUE(bed_.wait_server_recoveries(1));
  bed_.wait_for_recovery();

  const auto stats = bed_.rm().recovery_client_stats();
  // Each region replay filters the candidate write-sets; the replayed
  // mutations can only come from the second batch.
  EXPECT_LE(stats.mutations_replayed, 20);
  ASSERT_TRUE(bed_.wait_stable(second.back()));
  verify_rows(0, 40);
}

TEST_F(ServerRecoveryTest, CascadedFailureInheritanceKeepsDurability) {
  // The §3.2 scenario: replay lands on s', s' crashes before persisting the
  // replayed updates. Because s' inherited TP(s), its own recovery replays
  // them again. Without the piggyback this loses data.
  auto tss = commit_rows(0, 60);
  ASSERT_TRUE(bed_.client().wait_flushed());

  bed_.crash_server(0);
  ASSERT_TRUE(bed_.wait_server_recoveries(1));
  bed_.wait_for_recovery();
  ASSERT_TRUE(bed_.client().wait_flushed());

  // Immediately crash a second server — the one(s) that inherited replayed
  // updates have not WAL-synced them (syncer is off; heartbeats may not
  // have fired yet with a fresh TF).
  bed_.crash_server(1);
  ASSERT_TRUE(bed_.wait_server_recoveries(2));
  bed_.wait_for_recovery();
  ASSERT_TRUE(bed_.client().wait_flushed());

  ASSERT_TRUE(bed_.wait_stable(tss.back()));
  verify_rows(0, 60);
}

TEST_F(ServerRecoveryTest, InterruptedFlushRetriesUntilRegionsReturn) {
  // Crash first, then commit transactions whose rows live on the dead
  // server's regions: the flush blocks, retries without limit (§3.2), and
  // completes once recovery brings the regions back online.
  bed_.crash_server(0);
  auto tss = commit_rows(0, 20);  // commits succeed regardless (TM log)
  ASSERT_TRUE(bed_.wait_server_recoveries(1));
  EXPECT_TRUE(bed_.client().wait_flushed(seconds(30)))
      << "flushes must complete once the regions are back";
  bed_.wait_for_recovery();
  ASSERT_TRUE(bed_.wait_stable(tss.back()));
  verify_rows(0, 20);
}

TEST_F(ServerRecoveryTest, AtomicityAcrossRecoveryNoTornWritesets) {
  // A multi-region write-set is either fully visible or not at all at any
  // stable snapshot, even right after a failover.
  for (int i = 0; i < 10; ++i) {
    Transaction txn = bed_.client().begin("t");
    // Rows in different regions (spread across the keyspace).
    txn.put(Testbed::row_key(i), "c", "pair-" + std::to_string(i));
    txn.put(Testbed::row_key(2500 + i), "c", "pair-" + std::to_string(i));
    ASSERT_TRUE(txn.commit().is_ok());
  }
  ASSERT_TRUE(bed_.client().wait_flushed());
  bed_.crash_server(0);
  ASSERT_TRUE(bed_.wait_server_recoveries(1));
  bed_.wait_for_recovery();
  ASSERT_TRUE(bed_.client().wait_flushed());

  // Stable snapshots never show half a write-set.
  Transaction r = bed_.client().begin("t");
  for (int i = 0; i < 10; ++i) {
    auto a = r.get(Testbed::row_key(i), "c");
    auto b = r.get(Testbed::row_key(2500 + i), "c");
    ASSERT_TRUE(a.is_ok());
    ASSERT_TRUE(b.is_ok());
    EXPECT_EQ(a.value().has_value(), b.value().has_value()) << "torn write-set " << i;
    if (a.value().has_value()) EXPECT_EQ(*a.value(), *b.value());
  }
  r.abort();
}

TEST_F(ServerRecoveryTest, CleanShutdownNeedsNoTransactionalReplay) {
  auto tss = commit_rows(0, 20);
  ASSERT_TRUE(bed_.client().wait_flushed());
  ASSERT_TRUE(bed_.cluster().server(0).shutdown().is_ok());
  bed_.wait_for_recovery();
  EXPECT_EQ(bed_.rm().stats().server_recoveries, 0);
  ASSERT_TRUE(bed_.wait_stable(tss.back()));
  verify_rows(0, 20);
}

TEST_F(ServerRecoveryTest, SplitWalEditsCombineWithTmLogReplay) {
  // Partially persist: sync the WALs midway, then keep committing. After a
  // crash, the synced prefix returns via HBase's split-WAL recovery and the
  // suffix via the TM log; together they must cover everything.
  auto first = commit_rows(0, 20);
  ASSERT_TRUE(bed_.client().wait_flushed());
  for (int s = 0; s < bed_.cluster().num_servers(); ++s) {
    ASSERT_TRUE(bed_.cluster().server(s).persist_wal().is_ok());
  }
  auto second = commit_rows(20, 40);
  ASSERT_TRUE(bed_.client().wait_flushed());

  bed_.crash_server(0);
  ASSERT_TRUE(bed_.wait_server_recoveries(1));
  bed_.wait_for_recovery();
  ASSERT_TRUE(bed_.wait_stable(second.back()));
  verify_rows(0, 40);
}

TEST_F(ServerRecoveryTest, GateReplaysARegionInOneFrameWithOneInheritance) {
  // Every row below lies in the table's first region. Its host never syncs
  // its WAL, so the gate replays every write-set into the one region.
  constexpr int kRows = 20;
  const int victim = host_of(Testbed::row_key(0));
  fail_wal_syncs(victim);
  auto tss = commit_rows(0, kRows);
  ASSERT_TRUE(bed_.client().wait_flushed());
  Counter& inheritances = global_counter("tracker.inheritances");
  const auto inherited_before = inheritances.get();

  bed_.crash_server(victim);
  ASSERT_TRUE(bed_.wait_server_recoveries(1));
  bed_.wait_for_recovery();

  // One apply frame carries the region's whole candidate list; the target
  // inherits TPr(s) — and pays the inheritance heartbeat's WAL sync — once
  // per frame, not once per write-set.
  const auto stats = bed_.rm().recovery_client_stats();
  EXPECT_EQ(stats.region_writesets_replayed, kRows);
  EXPECT_GE(stats.flush_rpcs, 1);
  EXPECT_LT(stats.flush_rpcs, kRows);
  const auto inherited = inheritances.get() - inherited_before;
  EXPECT_GE(inherited, 1);
  EXPECT_LE(inherited, stats.flush_rpcs);

  ASSERT_TRUE(bed_.wait_stable(tss.back()));
  verify_rows(0, kRows);
}

TEST_F(ServerRecoveryTest, ReplayedWritesSurviveTargetCrashRightAfterItsGate) {
  // §5 invariant 6 with per-frame inheritance: the gate's replay frame is
  // WAL-synced on the target before it is acked, so crashing the target
  // the moment its gate returns loses none of the replayed write-sets.
  constexpr int kRows = 20;
  const int victim = host_of(Testbed::row_key(0));
  const std::string region = bed_.master().locate("t", Testbed::row_key(0)).value().region_name;
  fail_wal_syncs(victim);
  auto tss = commit_rows(0, kRows);
  ASSERT_TRUE(bed_.client().wait_flushed());

  // A gate can still fire after this test body returns (an assertion that
  // ends it early leaves recovery in flight), so the gates share ownership
  // of what they write.
  auto target = std::make_shared<std::atomic<int>>(-1);
  for (int i = 0; i < bed_.cluster().num_servers(); ++i) {
    bed_.cluster().server(i).set_region_gate(
        [this, i, region, target](const std::string& name, const std::string& server_id) {
          bed_.rm().on_region_recovered(name, server_id);
          if (name == region) target->store(i, std::memory_order_release);
        });
  }
  bed_.crash_server(victim);
  const Micros deadline = now_micros() + seconds(30);
  while (target->load(std::memory_order_acquire) < 0 && now_micros() < deadline) {
    sleep_micros(100);
  }
  const int next = target->load(std::memory_order_acquire);
  ASSERT_GE(next, 0) << "the region was never gated";
  ASSERT_NE(next, victim);
  bed_.crash_server(next);
  EXPECT_GE(bed_.rm().recovery_client_stats().region_writesets_replayed, kRows);

  ASSERT_TRUE(bed_.wait_server_recoveries(2));
  bed_.wait_for_recovery();
  ASSERT_TRUE(bed_.client().wait_flushed());
  ASSERT_TRUE(bed_.wait_stable(tss.back()));
  verify_rows(0, kRows);
}

TEST(InFlightApplyTest, CrashUnderAnInFlightFlushIsRetriedNotDropped) {
  // The crash closes the WAL segment under an apply that has passed the
  // server's liveness check. The flusher must retry the write-set into the
  // recovered region, not drop it: a dropped write-set never counts as
  // flushed, so TF(c) — and with it TF and TP — would stop short of it.
  TestbedConfig cfg = fast_test_config(2, 1);
  cfg.cluster.server.write_service = millis(200);
  // Detection must come after the apply reaches the WAL: an apply that
  // outlives the takeover is fenced (WrongEpoch), which was always retried.
  cfg.cluster.server.session_ttl = seconds(1);
  Testbed bed(cfg);
  ASSERT_TRUE(bed.start().is_ok());
  ASSERT_TRUE(bed.create_table("t", 1000, 2).is_ok());
  const std::string row = Testbed::row_key(0);
  const std::string host = bed.master().locate("t", row).value().server_id;

  Transaction txn = bed.client().begin("t");
  txn.put(row, "c", "in-flight");
  auto ts = txn.commit();
  ASSERT_TRUE(ts.is_ok());
  sleep_millis(50);  // the flusher's apply is now inside its service time
  for (int i = 0; i < bed.cluster().num_servers(); ++i) {
    if (bed.cluster().server(i).id() == host) bed.crash_server(i);
  }
  ASSERT_TRUE(bed.wait_server_recoveries(1));
  bed.wait_for_recovery();
  ASSERT_TRUE(bed.client().wait_flushed(seconds(30))) << "the in-flight write-set was dropped";
  ASSERT_TRUE(bed.wait_stable(ts.value()));
  Transaction r = bed.client().begin("t");
  auto v = r.get(row, "c");
  ASSERT_TRUE(v.is_ok());
  ASSERT_TRUE(v.value().has_value());
  EXPECT_EQ(*v.value(), "in-flight");
  r.abort();
}

}  // namespace
}  // namespace tfr
