// KvClient mechanics: the unlimited-retry flush protocol, cancellation,
// bounded-retry flushes and reads, and crash reports to the master.
#include "src/kv/kv_client.h"

#include <gtest/gtest.h>

#include <functional>
#include <thread>

#include "src/common/metrics.h"
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
  EXPECT_TRUE(client.flush_writesets({WriteSet{}}).is_ok());
  EXPECT_EQ(client.stats().flush_rpcs, 0);
}

TEST(KvClientTest, MissingCommitTimestampRejected) {
  Cluster cluster(tiny_cluster(1));
  ASSERT_TRUE(cluster.start().is_ok());
  KvClient client(cluster.master(), millis(1));
  WriteSet ws = ws_of(kNoTimestamp, {"r"});
  EXPECT_EQ(client.flush_writesets({ws}).code(), Code::kInvalidArgument);
}

TEST(KvClientTest, UnknownTableFailsFastInsteadOfRetrying) {
  Cluster cluster(tiny_cluster(1));
  ASSERT_TRUE(cluster.start().is_ok());
  KvClient client(cluster.master(), millis(1));
  const Micros start = now_micros();
  EXPECT_TRUE(client.flush_writesets({ws_of(1, {"row"})}).is_not_found());
  EXPECT_LT(now_micros() - start, millis(200)) << "must not enter the retry loop";
}

TEST(KvClientTest, CancelFlagAbortsBlockedFlush) {
  Cluster cluster(tiny_cluster(1));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {}).is_ok());
  cluster.crash_server(0);  // flushes now retry forever

  KvClient client(cluster.master(), millis(1));
  Counter& retries = global_counter("kv.flush_retries");
  const std::int64_t retries_before = retries.get();
  std::atomic<bool> cancel{false};
  Status result = Status::ok();
  std::thread flusher([&] {
    result = client.flush_writesets({ws_of(1, {"row"})}, &cancel);
  });
  sleep_millis(30);
  EXPECT_GT(retries.get(), retries_before);
  cancel = true;
  flusher.join();
  EXPECT_EQ(result.code(), Code::kClosed);
}

TEST(KvClientTest, FlushWithBoundedRetriesGivesUp) {
  Cluster cluster(tiny_cluster(1));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {}).is_ok());
  cluster.crash_server(0);  // the only server: its region is never re-homed
  KvClient client(cluster.master(), millis(1));
  Counter& retries = global_counter("kv.flush_retries");
  const std::int64_t retries_before = retries.get();
  Status result = client.flush_writesets({ws_of(1, {"row"})}, nullptr, std::nullopt,
                                         /*recovery_replay=*/false, /*max_retries=*/3);
  EXPECT_TRUE(result.is_unavailable()) << result;
  EXPECT_EQ(retries.get() - retries_before, 3);
  EXPECT_EQ(client.stats().flush_rpcs, 4) << "the first round plus three retries";
}

TEST(KvClientTest, GetWithBoundedRetriesGivesUp) {
  Cluster cluster(tiny_cluster(1));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {}).is_ok());
  cluster.crash_server(0);
  KvClient client(cluster.master(), millis(1));
  Counter& retries = global_counter("kv.read_retries");
  const std::int64_t retries_before = retries.get();
  auto result = client.get("t", "row", "c", 10, /*max_retries=*/3);
  EXPECT_TRUE(result.status().is_unavailable());
  EXPECT_EQ(retries.get() - retries_before, 3);
}

TEST(KvClientTest, FlushSpansMultipleServers) {
  Cluster cluster(tiny_cluster(2));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {"m"}).is_ok());
  KvClient client(cluster.master(), millis(1));
  ASSERT_TRUE(client.flush_writesets({ws_of(5, {"apple", "zebra"})}).is_ok());
  EXPECT_EQ(client.stats().flush_rpcs, 2) << "one apply frame per participant server";
}

TEST(KvClientTest, ScanLocatesEachRegionOnce) {
  Cluster cluster(tiny_cluster(2));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {"m"}).is_ok());
  KvClient client(cluster.master(), millis(1));
  ASSERT_TRUE(client.flush_writesets({ws_of(5, {"apple", "zebra"})}).is_ok());
  Counter& hits = global_counter("kv.route_hits");
  Counter& misses = global_counter("kv.route_misses");
  const std::int64_t hits_before = hits.get();
  const std::int64_t misses_before = misses.get();
  auto cells = client.scan("t", "", "", 10, 0);
  ASSERT_TRUE(cells.is_ok()) << cells.status();
  EXPECT_EQ(cells.value().size(), 2u);
  EXPECT_EQ(hits.get() - hits_before, 2) << "one cached lookup per region walked";
  EXPECT_EQ(misses.get() - misses_before, 0);
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
    ASSERT_TRUE(client.flush_writesets({ws_of(7, {"apple", "zebra"})}).is_ok());
    done = true;
  });
  const Micros deadline = now_micros() + seconds(10);
  while (!done && now_micros() < deadline) sleep_millis(5);
  flusher.join();
  ASSERT_TRUE(done.load());
  EXPECT_EQ(client.get("t", "apple", "c", 10).value()->value, "v7");
  EXPECT_EQ(client.get("t", "zebra", "c", 10).value()->value, "v7");
}

TEST(KvClientTest, ServerDownAnswersTriggerOneProbeEachAndRepeatsCoalesce) {
  // A session TTL no test outlives: every takeover here is on proof.
  ClusterConfig cfg = tiny_cluster(4);
  cfg.server.session_ttl = seconds(60);
  Cluster cluster(cfg);
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {"b", "c", "d"}).is_ok());
  KvClient client(cluster.master(), millis(1));
  ASSERT_TRUE(client.flush_writesets({ws_of(5, {"a", "b", "c", "d"})}).is_ok());
  // No recovery middleware here: only what the WALs hold survives a crash.
  for (int i = 0; i < cluster.num_servers(); ++i) {
    ASSERT_TRUE(cluster.server(i).persist_wal().is_ok());
  }

  Counter& probes = global_counter("master.crash_probes");
  Counter& proofs = global_counter("master.takeovers_on_proof");
  Counter& expiries = global_counter("master.takeovers_on_expiry");
  const std::int64_t expiries_before = expiries.get();
  // Crash the host of `row` and run `op` against it: the first ServerDown
  // answer costs one probe and one takeover; the retries after it, and any
  // further report of the same server, cost nothing.
  auto crash_host_then = [&](const std::string& row, const std::function<void()>& op) {
    const std::string host = cluster.master().locate("t", row).value().server_id;
    cluster.server_by_id(host)->crash();
    const std::int64_t probes_before = probes.get();
    const std::int64_t proofs_before = proofs.get();
    op();
    EXPECT_EQ(probes.get() - probes_before, 1) << row;
    EXPECT_EQ(proofs.get() - proofs_before, 1) << row;
    cluster.master().suspect_server(host);
    op();
    EXPECT_EQ(probes.get() - probes_before, 1) << "a repeat report of " << host << " probed";
  };
  crash_host_then("a", [&] {
    auto v = client.get("t", "a", "c", 10);
    ASSERT_TRUE(v.is_ok()) << v.status();
    ASSERT_TRUE(v.value().has_value());
    EXPECT_EQ(v.value()->value, "v5");
  });
  crash_host_then("b", [&] {
    auto cells = client.scan("t", "b", "c", 10, 0);
    ASSERT_TRUE(cells.is_ok()) << cells.status();
    ASSERT_EQ(cells.value().size(), 1u);
    EXPECT_EQ(cells.value()[0].value, "v5");
  });
  crash_host_then("c", [&] { EXPECT_TRUE(client.flush_writesets({ws_of(6, {"c"})}).is_ok()); });
  EXPECT_EQ(expiries.get(), expiries_before);
  EXPECT_EQ(global_counter("master.proof_takeovers_of_live_servers").get(), 0);
}

TEST(KvClientTest, ProbeOfARunningServerTakesNothingOver) {
  Cluster cluster(tiny_cluster(2));
  ASSERT_TRUE(cluster.start().is_ok());
  Counter& probes = global_counter("master.crash_probes");
  const std::int64_t probes_before = probes.get();
  cluster.master().suspect_server(cluster.server(0).id());
  EXPECT_EQ(probes.get() - probes_before, 1);
  EXPECT_EQ(cluster.master().live_servers().size(), 2u);
  cluster.master().suspect_server("no-such-server");
  EXPECT_EQ(probes.get() - probes_before, 1) << "an unknown id is not probed";
}

}  // namespace
}  // namespace tfr
