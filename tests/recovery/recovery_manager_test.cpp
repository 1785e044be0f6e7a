// Recovery-manager threshold maintenance (Algorithms 2 & 4): global TF/TP
// aggregation, publication, log truncation at the checkpoint, and RM restart.
#include "src/recovery/recovery_manager.h"

#include <gtest/gtest.h>

#include "src/common/fault.h"
#include "src/kv/kv_client.h"
#include "src/recovery/recovery_client.h"
#include "src/testbed/testbed.h"

namespace tfr {
namespace {

class RecoveryManagerTest : public ::testing::Test {
 protected:
  RecoveryManagerTest() : bed_(fast_test_config(2, 2)) {}

  void SetUp() override {
    ASSERT_TRUE(bed_.start().is_ok());
    ASSERT_TRUE(bed_.create_table("t", 1000, 4).is_ok());
  }

  Timestamp commit_one(TxnClient& client, const std::string& row) {
    Transaction txn = client.begin("t");
    txn.put(row, "c", "v");
    auto ts = txn.commit();
    EXPECT_TRUE(ts.is_ok());
    return ts.value_or(kNoTimestamp);
  }

  Testbed bed_;
};

TEST_F(RecoveryManagerTest, PublishesThresholdsToCoord) {
  bed_.rm().refresh_now();
  EXPECT_TRUE(bed_.coord().get(kTfPath).has_value());
  EXPECT_TRUE(bed_.coord().get(kTpPath).has_value());
}

TEST_F(RecoveryManagerTest, TfFollowsClientFlushes) {
  const Timestamp ts = commit_one(bed_.client(0), Testbed::row_key(1));
  ASSERT_TRUE(bed_.client(0).wait_flushed());
  ASSERT_TRUE(bed_.wait_stable(ts));
  EXPECT_GE(bed_.rm().global_tf(), ts);
}

TEST_F(RecoveryManagerTest, TpNeverExceedsTf) {
  for (int i = 0; i < 20; ++i) commit_one(bed_.client(i % 2), Testbed::row_key(i));
  for (int iter = 0; iter < 50; ++iter) {
    bed_.rm().refresh_now();
    EXPECT_LE(bed_.rm().global_tp(), bed_.rm().global_tf());
    sleep_millis(1);
  }
}

TEST_F(RecoveryManagerTest, TpAdvancesAfterServerHeartbeats) {
  const Timestamp ts = commit_one(bed_.client(0), Testbed::row_key(1));
  ASSERT_TRUE(bed_.client(0).wait_flushed());
  ASSERT_TRUE(bed_.wait_stable(ts));
  // Drive server heartbeats (persist + TP advance) and RM polls until the
  // global TP catches up.
  const Micros deadline = now_micros() + seconds(5);
  while (bed_.rm().global_tp() < ts && now_micros() < deadline) {
    bed_.cluster().server(0).heartbeat_now();
    bed_.cluster().server(1).heartbeat_now();
    bed_.rm().refresh_now();
    sleep_millis(1);
  }
  EXPECT_GE(bed_.rm().global_tp(), ts);
}

TEST_F(RecoveryManagerTest, LogTruncatedAtCheckpoint) {
  const Timestamp ts = commit_one(bed_.client(0), Testbed::row_key(1));
  ASSERT_TRUE(bed_.client(0).wait_flushed());
  ASSERT_TRUE(bed_.wait_stable(ts));
  const Micros deadline = now_micros() + seconds(5);
  while (bed_.rm().global_tp() < ts && now_micros() < deadline) {
    bed_.cluster().server(0).heartbeat_now();
    bed_.cluster().server(1).heartbeat_now();
    bed_.rm().refresh_now();
    sleep_millis(1);
  }
  ASSERT_GE(bed_.rm().global_tp(), ts);
  // The checkpoint passed ts: the write-set is gone from the recovery log.
  EXPECT_TRUE(bed_.tm().log().fetch_after(0).empty());
}

TEST_F(RecoveryManagerTest, TruncationIsSafeNothingBelowTpIsNeeded) {
  // Invariant 3 of DESIGN.md: every write-set the log has dropped is fully
  // persisted — crash a server right after truncation and verify nothing is
  // lost even though the log cannot replay the truncated prefix.
  const Timestamp ts = commit_one(bed_.client(0), Testbed::row_key(1));
  ASSERT_TRUE(bed_.client(0).wait_flushed());
  ASSERT_TRUE(bed_.wait_stable(ts));
  const Micros deadline = now_micros() + seconds(5);
  while (bed_.rm().global_tp() < ts && now_micros() < deadline) {
    bed_.cluster().server(0).heartbeat_now();
    bed_.cluster().server(1).heartbeat_now();
    bed_.rm().refresh_now();
    sleep_millis(1);
  }
  ASSERT_GE(bed_.rm().global_tp(), ts);

  bed_.crash_server(0);
  bed_.wait_for_recovery();
  ASSERT_TRUE(bed_.client(0).wait_flushed());

  Transaction txn = bed_.client(1).begin("t");
  auto value = txn.get(Testbed::row_key(1), "c");
  ASSERT_TRUE(value.is_ok());
  ASSERT_TRUE(value.value().has_value());
  EXPECT_EQ(*value.value(), "v");
  txn.abort();
}

TEST_F(RecoveryManagerTest, IdleClientDoesNotBlockTf) {
  // client(1) never commits anything; TF must still follow client(0).
  const Timestamp ts = commit_one(bed_.client(0), Testbed::row_key(2));
  ASSERT_TRUE(bed_.client(0).wait_flushed());
  EXPECT_TRUE(bed_.wait_stable(ts)) << "idle client 1 blocked TF";
}

TEST_F(RecoveryManagerTest, CleanClientCloseReleasesTf) {
  auto extra = bed_.add_client();
  ASSERT_TRUE(extra.is_ok());
  const Timestamp ts = commit_one(bed_.client(0), Testbed::row_key(3));
  ASSERT_TRUE(bed_.client(0).wait_flushed());
  ASSERT_TRUE(extra.value()->close().is_ok());
  EXPECT_TRUE(bed_.wait_stable(ts));
}

TEST_F(RecoveryManagerTest, RawClientSessionMaxMergesAndPinsTf) {
  // Registry C by hand: a session the RM ingests like any client, but whose
  // TF(c) payload the test controls.
  const Timestamp pin = commit_one(bed_.client(0), Testbed::row_key(7));
  ASSERT_TRUE(bed_.client(0).wait_flushed());
  ASSERT_TRUE(bed_.wait_stable(pin));
  const std::string registry_path = std::string(kClientRegistryPrefix) + "pinned";
  ASSERT_TRUE(bed_.coord().create_session("clients", "pinned", seconds(30), pin).is_ok());
  bed_.rm().refresh_now();
  ASSERT_EQ(bed_.coord().get(registry_path), pin);

  // A stale, lower TF(c) never lowers the entry (max-merge).
  ASSERT_TRUE(bed_.coord().heartbeat("clients", "pinned", pin - 1).is_ok());
  bed_.rm().refresh_now();
  EXPECT_EQ(bed_.coord().get(registry_path), pin);

  // While the session lives, its TF(c) bounds TF however far the real
  // clients flush.
  Timestamp last = kNoTimestamp;
  for (int i = 0; i < 5; ++i) last = commit_one(bed_.client(i % 2), Testbed::row_key(8 + i));
  ASSERT_GT(last, pin);
  ASSERT_TRUE(bed_.client(0).wait_flushed());
  ASSERT_TRUE(bed_.client(1).wait_flushed());
  for (int i = 0; i < 3; ++i) {
    bed_.rm().refresh_now();
    EXPECT_LE(bed_.rm().global_tf(), pin);
    sleep_millis(20);
  }

  // Closing the session drops its entry and releases TF.
  ASSERT_TRUE(bed_.coord().close_session("clients", "pinned").is_ok());
  EXPECT_TRUE(bed_.wait_stable(last));
  EXPECT_GE(bed_.rm().global_tf(), last);
  EXPECT_FALSE(bed_.coord().get(registry_path).has_value());
}

TEST_F(RecoveryManagerTest, RestartRecoversStateFromCoord) {
  const Timestamp ts = commit_one(bed_.client(0), Testbed::row_key(4));
  ASSERT_TRUE(bed_.client(0).wait_flushed());
  ASSERT_TRUE(bed_.wait_stable(ts));
  const Timestamp tf_before = bed_.rm().global_tf();

  bed_.restart_recovery_manager();

  // The restarted RM adopts the published thresholds (no regression).
  EXPECT_GE(bed_.rm().global_tf(), tf_before);

  // And processing continues: new commits flow and TF keeps advancing.
  const Timestamp ts2 = commit_one(bed_.client(0), Testbed::row_key(5));
  ASSERT_TRUE(bed_.client(0).wait_flushed());
  EXPECT_TRUE(bed_.wait_stable(ts2));
}

TEST_F(RecoveryManagerTest, ProcessingContinuesWhileRmIsDown) {
  // §3.3: transaction processing can continue while the RM is down.
  // Simulate by simply not letting the RM poll (it is stopped), committing,
  // then restarting it.
  bed_.rm().stop();
  const Timestamp ts = commit_one(bed_.client(0), Testbed::row_key(6));
  EXPECT_GT(ts, 0);
  ASSERT_TRUE(bed_.client(0).wait_flushed());
  bed_.restart_recovery_manager();
  EXPECT_TRUE(bed_.wait_stable(ts));
}

TEST_F(RecoveryManagerTest, RegionReplaySkipsOnlyWriteSetsTheSplitEditsFullyHold) {
  // Both write-sets fall in the table's first region. The split edits hold
  // the first whole, but only one of the second's two rows, as when a
  // write-set reached the region in two slices and the later record was
  // lost. Only the second is replayed, and whole.
  RecoveryClient replayer(bed_.master());
  const std::string a = Testbed::row_key(1), b = Testbed::row_key(2), c = Testbed::row_key(3);
  const RegionLocation loc = bed_.master().locate("t", a).value();
  ASSERT_TRUE(loc.descriptor.contains(c));
  constexpr Timestamp kT1 = 1'000'001;
  constexpr Timestamp kT2 = 1'000'002;
  const std::vector<WriteSet> writesets = {
      WriteSet{1, "c0", kT1, "t", {Mutation{a, "c", "one", false}}},
      WriteSet{2, "c0", kT2, "t", {Mutation{b, "c", "two", false}, Mutation{c, "c", "two", false}}}};
  std::vector<WalRecord> recovered(2);
  recovered[0].region = recovered[1].region = loc.region_name;
  recovered[0].commit_ts = kT1;
  recovered[0].cells = {Cell{a, "c", "one", kT1, false}};
  recovered[1].commit_ts = kT2;
  recovered[1].cells = {Cell{b, "c", "two", kT2, false}};

  ASSERT_TRUE(replayer.replay_for_region(writesets, loc.descriptor, bed_.rm().global_tp(),
                                         recovered).is_ok());
  const RecoveryClientStats stats = replayer.stats();
  EXPECT_EQ(stats.region_writesets_deduped, 1);
  EXPECT_EQ(stats.region_writesets_replayed, 1);
  EXPECT_EQ(stats.mutations_replayed, 2);
  KvClient reader(bed_.master());
  auto dropped = reader.get("t", a, "c", kT2);
  ASSERT_TRUE(dropped.is_ok());
  EXPECT_FALSE(dropped.value().has_value()) << "a write-set the split held was replayed";
  auto missing = reader.get("t", c, "c", kT2);
  ASSERT_TRUE(missing.is_ok());
  ASSERT_TRUE(missing.value().has_value()) << "the partly held write-set was not replayed";
  EXPECT_EQ(missing.value()->value, "two");
}

TEST_F(RecoveryManagerTest, StatsCountRefreshes) {
  bed_.rm().refresh_now();
  bed_.rm().refresh_now();
  EXPECT_GE(bed_.rm().stats().threshold_refreshes, 2);
}

TEST(RecoveryManagerPublishTest, PublishBeforeAnyPollCountsEveryLiveClient) {
  // A crash taken over on proof makes the RM publish (on_server_failure)
  // long before a poll is due. TF must still be bounded by every live
  // client's TF(c): a client the RM has not ingested yet would otherwise
  // let TF — and the TM-log checkpoint — run past its unflushed commits.
  TestbedConfig cfg = fast_test_config(3, 1);
  cfg.recovery.poll_interval = seconds(100);  // no poll within the test
  Testbed bed(cfg);
  ASSERT_TRUE(bed.start().is_ok());
  ASSERT_TRUE(bed.create_table("t", 1000, 3).is_ok());
  const std::string row = Testbed::row_key(0);
  const std::string host = bed.master().locate("t", row).value().server_id;
  FaultRule lost;  // the write-set below can never be flushed
  lost.op = FaultOp::kRpcApply;
  lost.target = host;
  lost.error_probability = 1.0;
  bed.fault().add_rule(lost);
  Transaction txn = bed.client().begin("t");
  txn.put(row, "c", "v");
  auto ts = txn.commit();
  ASSERT_TRUE(ts.is_ok());

  int other = 0;
  while (bed.cluster().server(other).id() == host) ++other;
  bed.crash_server(other);
  bed.master().suspect_server(bed.cluster().server(other).id());
  ASSERT_TRUE(bed.wait_server_recoveries(1));
  bed.wait_for_recovery();
  EXPECT_LT(bed.rm().global_tf(), ts.value());
  bool retained = false;
  for (const WriteSet& ws : bed.tm().log().fetch_client_after(bed.client().id(), kNoTimestamp)) {
    retained = retained || ws.commit_ts == ts.value();
  }
  EXPECT_TRUE(retained) << "the unflushed write-set was truncated from the TM log";
  bed.fault().clear_rules();
  EXPECT_TRUE(bed.client().wait_flushed());
}

}  // namespace
}  // namespace tfr
