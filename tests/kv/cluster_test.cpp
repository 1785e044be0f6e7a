// Cluster/master level tests: table creation, routing, failover
// reassignment with WAL-split recovery — the store's own recovery, without
// the transactional layer on top.
#include "src/kv/cluster.h"

#include <gtest/gtest.h>

#include "src/kv/kv_client.h"

namespace tfr {
namespace {

ClusterConfig fast_cluster(int servers) {
  ClusterConfig cfg;
  cfg.num_servers = servers;
  cfg.coord_check_interval = millis(5);
  cfg.server.heartbeat_interval = millis(20);
  cfg.server.session_ttl = millis(100);
  cfg.server.wal_sync_interval = millis(10);
  return cfg;
}

WriteSet make_ws(Timestamp ts, std::vector<std::string> rows) {
  WriteSet ws;
  ws.txn_id = static_cast<std::uint64_t>(ts);
  ws.client_id = "c1";
  ws.commit_ts = ts;
  ws.table = "t";
  for (auto& r : rows) ws.mutations.push_back(Mutation{r, "c", "v" + std::to_string(ts), false});
  return ws;
}

TEST(ClusterTest, CreateTableSpreadsRegions) {
  Cluster cluster(fast_cluster(2));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {"g", "n", "t"}).is_ok());
  auto regions = cluster.master().table_regions("t");
  ASSERT_EQ(regions.size(), 4u);
  // Both servers host something.
  std::set<std::string> hosts;
  for (const auto& r : regions) hosts.insert(r.server_id);
  EXPECT_EQ(hosts.size(), 2u);
}

TEST(ClusterTest, DuplicateTableRejected) {
  Cluster cluster(fast_cluster(1));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {}).is_ok());
  EXPECT_EQ(cluster.master().create_table("t", {}).code(), Code::kAlreadyExists);
}

TEST(ClusterTest, LocateFindsTheRightRegion) {
  Cluster cluster(fast_cluster(2));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {"m"}).is_ok());
  auto low = cluster.master().locate("t", "abc").value();
  auto high = cluster.master().locate("t", "zzz").value();
  EXPECT_EQ(low.descriptor.start_key, "");
  EXPECT_EQ(high.descriptor.start_key, "m");
  EXPECT_TRUE(cluster.master().locate("nope", "x").status().is_not_found());
}

TEST(ClusterTest, KvClientWritesAndReadsThroughRouting) {
  Cluster cluster(fast_cluster(2));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {"m"}).is_ok());
  KvClient client(cluster.master(), millis(1));
  ASSERT_TRUE(client.flush_writesets({make_ws(5, {"apple", "zebra"})}).is_ok());
  EXPECT_EQ(client.get("t", "apple", "c", 10).value()->value, "v5");
  EXPECT_EQ(client.get("t", "zebra", "c", 10).value()->value, "v5");
}

TEST(ClusterTest, FailoverReassignsRegionsAndRecoversSyncedData) {
  Cluster cluster(fast_cluster(2));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {"m"}).is_ok());
  KvClient client(cluster.master(), millis(1));
  ASSERT_TRUE(client.flush_writesets({make_ws(5, {"apple", "zebra"})}).is_ok());
  // Sync both WALs so the data survives in the DFS.
  ASSERT_TRUE(cluster.server(0).persist_wal().is_ok());
  ASSERT_TRUE(cluster.server(1).persist_wal().is_ok());

  cluster.crash_server(0);
  // Detection + reassignment happen via coord expiry + master worker.
  const Micros deadline = now_micros() + seconds(5);
  while (cluster.master().live_servers().size() != 1 && now_micros() < deadline) {
    sleep_millis(5);
  }
  cluster.master().wait_for_idle();

  // All regions now live on the survivor, and the synced data is back.
  for (const auto& r : cluster.master().table_regions("t")) {
    EXPECT_EQ(r.server_id, cluster.server(1).id());
  }
  EXPECT_EQ(client.get("t", "apple", "c", 10).value()->value, "v5");
  EXPECT_EQ(client.get("t", "zebra", "c", 10).value()->value, "v5");
}

TEST(ClusterTest, UnsyncedDataIsLostWithoutTransactionalRecovery) {
  // This is the gap the paper's middleware exists to close: with HBase's
  // synchronous WAL flush disabled and no TM-log replay, a crash loses the
  // un-synced tail.
  ClusterConfig cfg = fast_cluster(2);
  cfg.server.wal_sync_interval = seconds(100);  // effectively never sync
  Cluster cluster(cfg);
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {}).is_ok());
  KvClient client(cluster.master(), millis(1));
  ASSERT_TRUE(client.flush_writesets({make_ws(5, {"apple"})}).is_ok());

  const auto victim = cluster.master().locate("t", "apple").value().server_id;
  const int victim_idx = victim == "rs1" ? 0 : 1;
  cluster.crash_server(victim_idx);
  const Micros deadline = now_micros() + seconds(5);
  while (cluster.master().live_servers().size() != 1 && now_micros() < deadline) {
    sleep_millis(5);
  }
  cluster.master().wait_for_idle();

  EXPECT_FALSE(client.get("t", "apple", "c", 10).value().has_value());
}

TEST(ClusterTest, AddServerJoinsLive) {
  Cluster cluster(fast_cluster(1));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.add_server().is_ok());
  EXPECT_EQ(cluster.master().live_servers().size(), 2u);
  // New tables can land regions on the new server.
  ASSERT_TRUE(cluster.master().create_table("t", {"m"}).is_ok());
  std::set<std::string> hosts;
  for (const auto& r : cluster.master().table_regions("t")) hosts.insert(r.server_id);
  EXPECT_EQ(hosts.size(), 2u);
}

TEST(ClusterTest, CleanShutdownReassignsWithoutDataLoss) {
  Cluster cluster(fast_cluster(2));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {"m"}).is_ok());
  KvClient client(cluster.master(), millis(1));
  ASSERT_TRUE(client.flush_writesets({make_ws(5, {"apple", "zebra"})}).is_ok());

  // Clean shutdown flushes memstores; no WAL sync needed beforehand.
  ASSERT_TRUE(cluster.server(0).shutdown().is_ok());
  cluster.master().wait_for_idle();

  EXPECT_EQ(client.get("t", "apple", "c", 10).value()->value, "v5");
  EXPECT_EQ(client.get("t", "zebra", "c", 10).value()->value, "v5");
}

}  // namespace
}  // namespace tfr
