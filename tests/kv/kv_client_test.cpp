// KvClient mechanics: the unlimited-retry flush protocol, cancellation, and
// bounded-retry reads.
#include "src/kv/kv_client.h"

#include <gtest/gtest.h>

#include <thread>

#include "src/kv/cluster.h"

namespace tfr {
namespace {

ClusterConfig tiny_cluster(int servers = 2) {
  ClusterConfig cfg;
  cfg.num_servers = servers;
  cfg.coord_check_interval = millis(5);
  cfg.server.heartbeat_interval = millis(20);
  cfg.server.session_ttl = millis(120);
  cfg.server.wal_sync_interval = millis(10);
  return cfg;
}

WriteSet ws_of(Timestamp ts, std::vector<std::string> rows) {
  WriteSet ws;
  ws.commit_ts = ts;
  ws.client_id = "c";
  ws.table = "t";
  for (auto& r : rows) ws.mutations.push_back(Mutation{r, "c", "v" + std::to_string(ts), false});
  return ws;
}

TEST(KvClientTest, EmptyWritesetIsNoop) {
  Cluster cluster(tiny_cluster(1));
  ASSERT_TRUE(cluster.start().is_ok());
  KvClient client(cluster.master(), millis(1));
  EXPECT_TRUE(client.flush_writeset(WriteSet{}).is_ok());
  EXPECT_EQ(client.stats().flush_rpcs, 0);
}

TEST(KvClientTest, MissingCommitTimestampRejected) {
  Cluster cluster(tiny_cluster(1));
  ASSERT_TRUE(cluster.start().is_ok());
  KvClient client(cluster.master(), millis(1));
  WriteSet ws = ws_of(kNoTimestamp, {"r"});
  EXPECT_EQ(client.flush_writeset(ws).code(), Code::kInvalidArgument);
}

TEST(KvClientTest, UnknownTableFailsFastInsteadOfRetrying) {
  Cluster cluster(tiny_cluster(1));
  ASSERT_TRUE(cluster.start().is_ok());
  KvClient client(cluster.master(), millis(1));
  const Micros start = now_micros();
  EXPECT_TRUE(client.flush_writeset(ws_of(1, {"row"})).is_not_found());
  EXPECT_LT(now_micros() - start, millis(200)) << "must not enter the retry loop";
}

TEST(KvClientTest, CancelFlagAbortsBlockedFlush) {
  Cluster cluster(tiny_cluster(1));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {}).is_ok());
  cluster.crash_server(0);  // flushes now retry forever

  KvClient client(cluster.master(), millis(1));
  std::atomic<bool> cancel{false};
  Status result = Status::ok();
  std::thread flusher([&] {
    result = client.flush_writeset(ws_of(1, {"row"}), &cancel);
  });
  sleep_millis(30);
  EXPECT_GT(client.stats().flush_retries, 0);
  cancel = true;
  flusher.join();
  EXPECT_EQ(result.code(), Code::kClosed);
}

TEST(KvClientTest, GetWithBoundedRetriesGivesUp) {
  Cluster cluster(tiny_cluster(1));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {}).is_ok());
  cluster.crash_server(0);
  KvClient client(cluster.master(), millis(1));
  auto result = client.get("t", "row", "c", 10, /*max_retries=*/3);
  EXPECT_TRUE(result.status().is_unavailable());
  EXPECT_GE(client.stats().read_retries, 3);
}

TEST(KvClientTest, FlushSpansMultipleServers) {
  Cluster cluster(tiny_cluster(2));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {"m"}).is_ok());
  KvClient client(cluster.master(), millis(1));
  ASSERT_TRUE(client.flush_writeset(ws_of(5, {"apple", "zebra"})).is_ok());
  EXPECT_EQ(client.stats().flush_rpcs, 2) << "one ApplyRequest per participant server";
}

TEST(KvClientTest, FlushRecoversWhenRegionComesBack) {
  Cluster cluster(tiny_cluster(2));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {"m"}).is_ok());
  // Sync WALs so the failover itself cannot lose pre-existing data.
  KvClient client(cluster.master(), millis(1));

  cluster.crash_server(0);
  // Flush while the region is migrating: it must block, then complete.
  std::atomic<bool> done{false};
  std::thread flusher([&] {
    ASSERT_TRUE(client.flush_writeset(ws_of(7, {"apple", "zebra"})).is_ok());
    done = true;
  });
  const Micros deadline = now_micros() + seconds(10);
  while (!done && now_micros() < deadline) sleep_millis(5);
  flusher.join();
  ASSERT_TRUE(done.load());
  EXPECT_EQ(client.get("t", "apple", "c", 10).value()->value, "v7");
  EXPECT_EQ(client.get("t", "zebra", "c", 10).value()->value, "v7");
}

}  // namespace
}  // namespace tfr
