#include "src/kv/rpc_messages.h"

#include <gtest/gtest.h>

namespace tfr {
namespace {

ApplyRequest sample_request() {
  ApplyRequest req;
  req.txn_id = 42;
  req.client_id = "client-7";
  req.commit_ts = 1234;
  req.table = "usertable";
  req.mutations.push_back(Mutation{"row1", "c", "value-one", false});
  req.mutations.push_back(Mutation{"row2", "c", "", true});  // delete
  return req;
}

TEST(RpcMessagesTest, ApplyRequestRoundTrip) {
  ApplyRequest req = sample_request();
  auto decoded = decode_apply_request(encode_apply_request(req));
  ASSERT_TRUE(decoded.is_ok());
  const ApplyRequest& d = decoded.value();
  EXPECT_EQ(d.txn_id, 42u);
  EXPECT_EQ(d.client_id, "client-7");
  EXPECT_EQ(d.commit_ts, 1234);
  EXPECT_EQ(d.table, "usertable");
  ASSERT_EQ(d.mutations.size(), 2u);
  EXPECT_EQ(d.mutations[0].value, "value-one");
  EXPECT_TRUE(d.mutations[1].is_delete);
  EXPECT_FALSE(d.piggyback_tp.has_value());
  EXPECT_FALSE(d.recovery_replay);
}

TEST(RpcMessagesTest, PiggybackAndReplayFlagsSurvive) {
  ApplyRequest req = sample_request();
  req.piggyback_tp = 77;
  req.recovery_replay = true;
  auto decoded = decode_apply_request(encode_apply_request(req));
  ASSERT_TRUE(decoded.is_ok());
  ASSERT_TRUE(decoded.value().piggyback_tp.has_value());
  EXPECT_EQ(*decoded.value().piggyback_tp, 77);
  EXPECT_TRUE(decoded.value().recovery_replay);
}

TEST(RpcMessagesTest, TruncatedWireIsCorruption) {
  const std::string wire = encode_apply_request(sample_request());
  for (std::size_t cut : {std::size_t{0}, std::size_t{4}, wire.size() / 2, wire.size() - 1}) {
    EXPECT_EQ(decode_apply_request(wire.substr(0, cut)).status().code(), Code::kCorruption)
        << "cut at " << cut;
  }
}

TEST(RpcMessagesTest, TrailingGarbageIsCorruption) {
  std::string wire = encode_apply_request(sample_request());
  wire += "junk";
  EXPECT_EQ(decode_apply_request(wire).status().code(), Code::kCorruption);
}

TEST(RpcMessagesTest, TransferTimeMatchesBandwidth) {
  // 1250 bytes = 10,000 bits; at 100 Mbps that is 100 us.
  EXPECT_EQ(transfer_micros(1250, 100.0), 100);
  // Zero bandwidth disables the charge.
  EXPECT_EQ(transfer_micros(1'000'000, 0), 0);
  // 1 KB at 10 Mbps ~ 819 us.
  EXPECT_NEAR(static_cast<double>(transfer_micros(1024, 10.0)), 819.0, 1.0);
}

TEST(RpcMessagesTest, WireSizeScalesWithPayload) {
  ApplyRequest small = sample_request();
  ApplyRequest big = sample_request();
  for (int i = 0; i < 100; ++i) {
    big.mutations.push_back(Mutation{"row" + std::to_string(i), "c", std::string(100, 'x'),
                                     false});
  }
  EXPECT_GT(encode_apply_request(big).size(), encode_apply_request(small).size() + 10'000);
}

TEST(RpcMessagesTest, BandwidthChargeSlowsBigWritesets) {
  Dfs dfs{DfsConfig{}};
  Coord coord(seconds(10));
  RegionServerConfig cfg;
  cfg.heartbeat_interval = seconds(100);
  cfg.session_ttl = seconds(1000);
  cfg.wal_sync_interval = seconds(100);
  cfg.network_mbps = 10;  // slow link so the effect is visible
  RegionServer server("rs-net", dfs, coord, cfg);
  ASSERT_TRUE(server.start().is_ok());
  ASSERT_TRUE(server.open_region(RegionDescriptor{"t", "", ""}, {}).is_ok());

  ApplyRequest req;
  req.commit_ts = 1;
  req.client_id = "c";
  req.table = "t";
  for (int i = 0; i < 100; ++i) {
    req.mutations.push_back(Mutation{"row" + std::to_string(i), "c",
                                     std::string(1000, 'x'), false});
  }
  // ~100 KB at 10 Mbps ~ 80 ms of transfer time.
  const Micros start = now_micros();
  BatchApplyRequest frame;
  frame.slices.push_back(req);
  auto statuses = server.apply_batch(frame);
  ASSERT_TRUE(statuses.is_ok());
  ASSERT_TRUE(statuses.value().front().is_ok());
  EXPECT_GE(now_micros() - start, millis(60));
  ASSERT_TRUE(server.shutdown().is_ok());
}

}  // namespace
}  // namespace tfr
