// Fault injection at the cluster level: transient RPC errors, dropped acks,
// and corrupted frames are all absorbed by the client's retry loop (the
// flush path is idempotent); DFS gray failures surface as retryable errors
// or — for real data corruption — as checksum failures, never as silently
// wrong data. Also pins the zero-overhead contract of the disabled injector.
#include <gtest/gtest.h>

#include "src/common/metrics.h"
#include "src/kv/cluster.h"
#include "src/kv/kv_client.h"

namespace tfr {
namespace {

ClusterConfig fast_cluster(int servers) {
  ClusterConfig cfg;
  cfg.num_servers = servers;
  cfg.coord_check_interval = millis(5);
  cfg.server.heartbeat_interval = millis(20);
  cfg.server.session_ttl = millis(100);
  cfg.server.wal_sync_interval = seconds(100);  // sync manually in tests
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

std::string row_of(int i) { return "row-" + std::to_string(100 + i); }

class FaultInjectionTest : public ::testing::Test {
 protected:
  FaultInjectionTest() : cluster_(fast_cluster(1)), client_(cluster_.master(), millis(1)) {}

  void SetUp() override {
    ASSERT_TRUE(cluster_.start().is_ok());
    ASSERT_TRUE(cluster_.master().create_table("t", {}).is_ok());
  }

  void flush_rows(int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(client_.flush_writesets({make_ws(i + 1, {row_of(i)})}).is_ok()) << i;
    }
  }

  void verify_rows(int n) {
    for (int i = 0; i < n; ++i) {
      auto v = client_.get("t", row_of(i), "c", 1000, /*max_retries=*/50);
      ASSERT_TRUE(v.is_ok()) << i;
      ASSERT_TRUE(v.value().has_value()) << i;
      EXPECT_EQ(v.value()->value, "v" + std::to_string(i + 1)) << i;
    }
  }

  Cluster cluster_;
  KvClient client_;
};

TEST_F(FaultInjectionTest, TransientApplyErrorsAreRetriedToSuccess) {
  const std::int64_t retries_before = global_counter("kv.flush_retries").get();
  cluster_.fault().reseed(7);
  FaultRule r;
  r.op = FaultOp::kRpcApply;
  r.error_probability = 0.5;
  cluster_.fault().add_rule(r);
  flush_rows(20);
  cluster_.fault().clear_rules();
  verify_rows(20);
  EXPECT_GT(cluster_.fault().stats().injected_errors, 0);
  // The retries are observable in the process-wide counter.
  EXPECT_GT(global_counter("kv.flush_retries").get(), retries_before);
}

TEST_F(FaultInjectionTest, DroppedResponsesReapplyIdempotently) {
  cluster_.fault().reseed(8);
  FaultRule r;
  r.op = FaultOp::kRpcApply;
  r.drop_response_probability = 0.5;
  cluster_.fault().add_rule(r);
  flush_rows(20);
  cluster_.fault().clear_rules();
  // Every dropped ack caused a re-send of an already-applied slice; the
  // duplicate apply is a same-(row,ts) overwrite, so values stay correct.
  verify_rows(20);
  EXPECT_GT(cluster_.fault().stats().dropped_responses, 0);
}

TEST_F(FaultInjectionTest, CorruptedFramesAreRejectedAndResent) {
  cluster_.fault().reseed(9);
  FaultRule r;
  r.op = FaultOp::kRpcApply;
  r.corrupt_probability = 0.5;
  cluster_.fault().add_rule(r);
  // A corrupted frame must fail the CRC check server-side and surface as a
  // retryable NAK — the flushes below would return Corruption (and fail the
  // ASSERT inside flush_rows) if it leaked through.
  flush_rows(20);
  cluster_.fault().clear_rules();
  verify_rows(20);
  EXPECT_GT(cluster_.fault().stats().corrupted_wires, 0);
}

TEST_F(FaultInjectionTest, SlowWalSyncIsDelayedButSucceeds) {
  flush_rows(1);  // something in the WAL, so sync has work to do
  cluster_.fault().reseed(10);
  FaultRule r;
  r.op = FaultOp::kDfsSync;
  r.target = "/wal/";
  r.delay_probability = 1.0;
  r.delay = millis(3);
  cluster_.fault().add_rule(r);
  EXPECT_TRUE(cluster_.server(0).persist_wal().is_ok());
  cluster_.fault().clear_rules();
  const FaultStats s = cluster_.fault().stats();
  EXPECT_GE(s.injected_delays, 1);
  EXPECT_GE(s.delay_micros, millis(3));
}

TEST_F(FaultInjectionTest, DfsReadFaultSurfacesAsRetryableUnavailable) {
  ASSERT_TRUE(client_.flush_writesets({make_ws(5, {"apple"})}).is_ok());
  const auto loc = cluster_.master().locate("t", "apple").value();
  auto region = cluster_.server(0).region(loc.region_name);
  ASSERT_NE(region, nullptr);
  ASSERT_TRUE(region->flush_memstore().is_ok());
  cluster_.server(0).block_cache().clear();

  cluster_.fault().reseed(11);
  FaultRule r;
  r.op = FaultOp::kDfsRead;
  r.target = region->data_dir();
  r.error_probability = 1.0;
  cluster_.fault().add_rule(r);
  // The store-file read hits the injected DFS fault; with bounded retries
  // the client reports Unavailable (a transient condition), not corruption.
  EXPECT_EQ(client_.get("t", "apple", "c", 10, /*max_retries=*/3).status().code(),
            Code::kUnavailable);
  cluster_.fault().clear_rules();
  EXPECT_EQ(client_.get("t", "apple", "c", 10, 50).value()->value, "v5");
}

TEST_F(FaultInjectionTest, StoreFileBitFlipSurfacesAsChecksumErrorThroughServer) {
  // Satellite: real (persistent) corruption must NOT look transient. Flip a
  // bit in a store file behind the region server's back and read through the
  // full client -> server -> region -> DFS path.
  ASSERT_TRUE(client_.flush_writesets({make_ws(5, {"apple"})}).is_ok());
  const auto loc = cluster_.master().locate("t", "apple").value();
  auto region = cluster_.server(0).region(loc.region_name);
  ASSERT_NE(region, nullptr);
  ASSERT_TRUE(region->flush_memstore().is_ok());
  const auto paths = cluster_.dfs().list(region->data_dir());
  ASSERT_EQ(paths.size(), 1u);
  // Clean read first, then drop the cache so the next read hits the DFS.
  EXPECT_EQ(client_.get("t", "apple", "c", 10, 50).value()->value, "v5");
  cluster_.server(0).block_cache().clear();
  ASSERT_TRUE(cluster_.dfs().corrupt_byte(paths[0], 12).is_ok());
  EXPECT_EQ(client_.get("t", "apple", "c", 10, 50).status().code(), Code::kCorruption);
}

TEST_F(FaultInjectionTest, DisabledInjectorEvaluatesNothing) {
  // The default path must be untouched: no rules -> not even a rule
  // evaluation on the hot paths (just one relaxed atomic load).
  flush_rows(10);
  verify_rows(10);
  EXPECT_FALSE(cluster_.fault().enabled());
  const FaultStats s = cluster_.fault().stats();
  EXPECT_EQ(s.evaluations, 0);
  EXPECT_EQ(s.injected_errors, 0);
  EXPECT_EQ(s.injected_delays, 0);
}

}  // namespace
}  // namespace tfr
