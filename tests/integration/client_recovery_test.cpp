// §3.1 — client failure handling: detection via missed heartbeats, replay
// of committed-but-unflushed write-sets from the TM log via the recovery
// client, and the TF bookkeeping around it.
#include <gtest/gtest.h>

#include "src/common/fault.h"
#include "src/testbed/testbed.h"

namespace tfr {
namespace {

class ClientRecoveryTest : public ::testing::Test {
 protected:
  ClientRecoveryTest() : bed_(config()) {}

  static TestbedConfig config() {
    TestbedConfig cfg = fast_test_config(2, 2);
    // Freeze the async flush path so we can crash a client with committed
    // write-sets that have provably not reached the store.
    cfg.client.flusher_threads = 1;
    return cfg;
  }

  void SetUp() override {
    ASSERT_TRUE(bed_.start().is_ok());
    ASSERT_TRUE(bed_.create_table("t", 1000, 4).is_ok());
  }

  Testbed bed_;
};

TEST_F(ClientRecoveryTest, CommittedUnflushedWritesSurviveClientCrash) {
  TxnClient& victim = bed_.client(0);
  TxnClient& observer = bed_.client(1);

  // Commit a burst and crash before the flusher can drain it. With a single
  // flusher thread and many commits, at least the tail is unflushed.
  std::vector<Timestamp> committed;
  for (int i = 0; i < 50; ++i) {
    Transaction txn = victim.begin("t");
    txn.put(Testbed::row_key(i), "c", "value-" + std::to_string(i));
    auto ts = txn.commit();
    ASSERT_TRUE(ts.is_ok());
    committed.push_back(ts.value());
  }
  bed_.crash_client(0);

  // The recovery manager detects the missed heartbeats and replays from the
  // TM log; wait for it to finish.
  ASSERT_TRUE(bed_.wait_client_recoveries(1));
  bed_.wait_for_recovery();
  ASSERT_EQ(bed_.rm().stats().client_recoveries, 1);

  // Every committed value is readable by another client.
  ASSERT_TRUE(bed_.wait_stable(committed.back()));
  Transaction r = observer.begin("t");
  for (int i = 0; i < 50; ++i) {
    auto v = r.get(Testbed::row_key(i), "c");
    ASSERT_TRUE(v.is_ok());
    ASSERT_TRUE(v.value().has_value()) << "lost committed row " << i;
    EXPECT_EQ(*v.value(), "value-" + std::to_string(i));
  }
  r.abort();
}

TEST_F(ClientRecoveryTest, UncommittedTransactionIsSimplyGone) {
  TxnClient& victim = bed_.client(0);
  Transaction txn = victim.begin("t");
  txn.put("uncommitted", "c", "x");
  // Crash without committing: the buffered write-set is lost, which is
  // correct — only committed transactions are durable.
  bed_.crash_client(0);
  ASSERT_TRUE(bed_.wait_client_recoveries(1));
  bed_.wait_for_recovery();

  Transaction r = bed_.client(1).begin("t");
  EXPECT_FALSE(r.get("uncommitted", "c").value().has_value());
  r.abort();
  EXPECT_EQ(bed_.rm().recovery_client_stats().client_writesets_replayed, 0);
}

TEST_F(ClientRecoveryTest, CleanCloseTriggersNoReplay) {
  TxnClient& leaver = bed_.client(0);
  Transaction txn = leaver.begin("t");
  txn.put("k", "c", "v");
  ASSERT_TRUE(txn.commit().is_ok());
  ASSERT_TRUE(leaver.close().is_ok());
  // Give the RM a moment; no recovery should be recorded.
  sleep_millis(50);
  bed_.rm().refresh_now();
  EXPECT_EQ(bed_.rm().stats().client_recoveries, 0);

  Transaction r = bed_.client(1).begin("t");
  EXPECT_TRUE(r.get("k", "c").value().has_value());
  r.abort();
}

TEST_F(ClientRecoveryTest, OnlyTheFailedClientsWritesAreReplayed) {
  TxnClient& victim = bed_.client(0);
  TxnClient& healthy = bed_.client(1);

  Transaction h = healthy.begin("t");
  h.put("healthy-row", "c", "h");
  ASSERT_TRUE(h.commit().is_ok());
  ASSERT_TRUE(healthy.wait_flushed());

  Transaction v = victim.begin("t");
  v.put("victim-row", "c", "v");
  ASSERT_TRUE(v.commit().is_ok());
  bed_.crash_client(0);
  ASSERT_TRUE(bed_.wait_client_recoveries(1));
  bed_.wait_for_recovery();

  // fetchlogs(c, TFr(c)) is client-filtered: replay counts only cover the
  // victim (the healthy client's txn was flushed and below its TF anyway).
  const auto stats = bed_.rm().recovery_client_stats();
  EXPECT_LE(stats.client_writesets_replayed, 1);
}

TEST_F(ClientRecoveryTest, ReplayIsIdempotentWhenFlushAlreadyHappened) {
  // The threshold is conservative: the victim may have flushed more than its
  // last reported TF(c). Replaying those write-sets again must not corrupt
  // anything (same commit timestamp -> same versions).
  TxnClient& victim = bed_.client(0);
  Transaction txn = victim.begin("t");
  txn.put("idem", "c", "once");
  auto ts = txn.commit();
  ASSERT_TRUE(ts.is_ok());
  ASSERT_TRUE(victim.wait_flushed());  // fully flushed...
  bed_.crash_client(0);                // ...but TF(c) heartbeat may lag behind
  ASSERT_TRUE(bed_.wait_client_recoveries(1));
  bed_.wait_for_recovery();

  ASSERT_TRUE(bed_.wait_stable(ts.value()));
  Transaction r = bed_.client(1).begin("t");
  EXPECT_EQ(r.get("idem", "c").value().value(), "once");
  r.abort();
}

TEST_F(ClientRecoveryTest, ReplayIsOneBatchedFlushNotOneRpcPerWriteset) {
  // Every apply fails until the client is dead, so none of its write-sets
  // reaches the store and TF(c) stays below all of them.
  FaultRule lose_applies;
  lose_applies.op = FaultOp::kRpcApply;
  lose_applies.error_probability = 1.0;
  bed_.fault().add_rule(lose_applies);
  TxnClient& victim = bed_.client(0);
  constexpr int kWritesets = 20;
  Timestamp last = kNoTimestamp;
  for (int i = 0; i < kWritesets; ++i) {
    Transaction txn = victim.begin("t");
    txn.put(Testbed::row_key(i), "c", "batched-" + std::to_string(i));
    auto ts = txn.commit();
    ASSERT_TRUE(ts.is_ok());
    last = ts.value();
  }
  bed_.crash_client(0);
  bed_.fault().clear_rules();
  ASSERT_TRUE(bed_.wait_client_recoveries(1));
  bed_.wait_for_recovery();

  // fetchlogs(c, TFr(c)) hands every write-set to one batched flush: one
  // apply frame per server hosting replayed rows, not one RPC per write-set.
  const auto stats = bed_.rm().recovery_client_stats();
  EXPECT_EQ(stats.client_writesets_replayed, kWritesets);
  EXPECT_GE(stats.flush_rpcs, 1);
  EXPECT_LE(stats.flush_rpcs, bed_.cluster().num_servers());

  ASSERT_TRUE(bed_.wait_stable(last));
  Transaction r = bed_.client(1).begin("t");
  for (int i = 0; i < kWritesets; ++i) {
    auto v = r.get(Testbed::row_key(i), "c");
    ASSERT_TRUE(v.is_ok());
    ASSERT_TRUE(v.value().has_value()) << "lost committed row " << i;
    EXPECT_EQ(*v.value(), "batched-" + std::to_string(i));
  }
  r.abort();
}

TEST_F(ClientRecoveryTest, TfFloorHeldDuringRecoveryThenReleased) {
  TxnClient& victim = bed_.client(0);
  Transaction txn = victim.begin("t");
  txn.put("floor", "c", "v");
  auto ts = txn.commit();
  ASSERT_TRUE(ts.is_ok());
  bed_.crash_client(0);
  ASSERT_TRUE(bed_.wait_client_recoveries(1));
  bed_.wait_for_recovery();
  // After the replay completes the floor is released and TF can reach ts.
  EXPECT_TRUE(bed_.wait_stable(ts.value()));
}

}  // namespace
}  // namespace tfr
