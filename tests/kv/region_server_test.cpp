#include "src/kv/region_server.h"

#include <gtest/gtest.h>

#include <thread>

#include "src/common/fault.h"
#include "src/common/metrics.h"

namespace tfr {
namespace {

RegionServerConfig quiet_config() {
  RegionServerConfig cfg;
  cfg.heartbeat_interval = seconds(10);  // tests drive heartbeats manually
  cfg.session_ttl = seconds(60);
  cfg.wal_sync_interval = seconds(10);
  return cfg;
}

ApplyRequest make_request(Timestamp ts, std::vector<std::string> rows,
                          const std::string& table = "t") {
  ApplyRequest req;
  req.txn_id = static_cast<std::uint64_t>(ts);
  req.client_id = "c1";
  req.commit_ts = ts;
  req.table = table;
  for (auto& r : rows) req.mutations.push_back(Mutation{r, "c", "v" + std::to_string(ts), false});
  return req;
}

// Send one slice as a one-slice apply frame: the frame's transport status
// if it failed as a whole, else the slice's own status.
Status apply_one(RegionServer& server, ApplyRequest req) {
  BatchApplyRequest frame;
  frame.slices.push_back(std::move(req));
  auto statuses = server.apply_batch(frame);
  return statuses.is_ok() ? statuses.value().front() : statuses.status();
}

class RegionServerTest : public ::testing::Test {
 protected:
  RegionServerTest()
      : dfs_(DfsConfig{}), coord_(seconds(10)), server_("rs1", dfs_, coord_, quiet_config()) {}

  void SetUp() override {
    ASSERT_TRUE(server_.start().is_ok());
    ASSERT_TRUE(server_.open_region(RegionDescriptor{"t", "", ""}, {}).is_ok());
  }

  Dfs dfs_;
  Coord coord_;
  RegionServer server_;
};

TEST_F(RegionServerTest, ApplyThenRead) {
  ASSERT_TRUE(apply_one(server_, make_request(5, {"r1", "r2"})).is_ok());
  auto cell = server_.get("t", "r1", "c", 10);
  ASSERT_TRUE(cell.is_ok());
  EXPECT_EQ(cell.value()->value, "v5");
}

TEST_F(RegionServerTest, ApplyAppendsToWal) {
  ASSERT_TRUE(apply_one(server_, make_request(5, {"r1"})).is_ok());
  EXPECT_EQ(server_.wal().appended_seq(), 1u);
  EXPECT_EQ(server_.wal().synced_seq(), 0u);  // async mode: not yet durable
  ASSERT_TRUE(server_.persist_wal().is_ok());
  EXPECT_EQ(server_.wal().synced_seq(), 1u);
}

TEST_F(RegionServerTest, SyncWalOnWriteModePersistsImmediately) {
  RegionServerConfig cfg = quiet_config();
  cfg.sync_wal_on_write = true;
  RegionServer sync_server("rs-sync", dfs_, coord_, cfg);
  ASSERT_TRUE(sync_server.start().is_ok());
  ASSERT_TRUE(sync_server.open_region(RegionDescriptor{"t2", "", ""}, {}).is_ok());
  auto req = make_request(5, {"r1"}, "t2");
  ASSERT_TRUE(apply_one(sync_server, req).is_ok());
  EXPECT_EQ(sync_server.wal().synced_seq(), 1u);
  ASSERT_TRUE(sync_server.shutdown().is_ok());
}

TEST_F(RegionServerTest, RowNotHostedIsUnavailable) {
  auto status = apply_one(server_, make_request(5, {"r1"}, "unknown_table"));
  EXPECT_TRUE(status.is_unavailable());
  EXPECT_TRUE(server_.get("unknown_table", "r", "c", 10).status().is_unavailable());
}

TEST_F(RegionServerTest, GatedRegionRejectsNormalTrafficButAdmitsReplay) {
  auto region = server_.region("t,");
  ASSERT_NE(region, nullptr);
  region->set_state(RegionState::kGated);

  EXPECT_TRUE(apply_one(server_, make_request(5, {"r1"})).is_unavailable());
  EXPECT_TRUE(server_.get("t", "r1", "c", 10).status().is_unavailable());

  auto replay = make_request(5, {"r1"});
  replay.recovery_replay = true;
  EXPECT_TRUE(apply_one(server_, replay).is_ok());

  region->set_state(RegionState::kOnline);
  EXPECT_EQ(server_.get("t", "r1", "c", 10).value()->value, "v5");
}

TEST_F(RegionServerTest, CrashLosesMemstoreAndUnsyncedWal) {
  ASSERT_TRUE(apply_one(server_, make_request(5, {"r1"})).is_ok());
  server_.crash();
  EXPECT_FALSE(server_.alive());
  EXPECT_TRUE(apply_one(server_, make_request(6, {"r2"})).is_unavailable());
  EXPECT_TRUE(server_.get("t", "r1", "c", 10).status().is_unavailable());
  // The WAL on the DFS lost the unsynced record.
  EXPECT_TRUE(Wal::read_records(dfs_, server_.wal_path()).value().empty());
}

TEST_F(RegionServerTest, CleanShutdownFlushesAndUnregisters) {
  ASSERT_TRUE(apply_one(server_, make_request(5, {"r1"})).is_ok());
  ASSERT_TRUE(server_.shutdown().is_ok());
  // Session closed cleanly.
  EXPECT_FALSE(coord_.session("servers", "rs1").has_value());
  // Data reached a store file in the DFS.
  EXPECT_FALSE(dfs_.list("/data/").empty());
}

TEST_F(RegionServerTest, OpenRegionReplaysRecoveredEdits) {
  std::vector<WalRecord> edits;
  WalRecord edit;
  edit.region = "t2,";
  edit.commit_ts = 3;
  edit.cells.push_back(Cell{"rx", "c", "recovered", 3, false});
  edits.push_back(edit);
  std::vector<Timestamp> gate_saw;
  server_.set_region_gate([&](const std::string&, const std::string&,
                              const std::vector<WalRecord>& recovered) {
    for (const WalRecord& rec : recovered) gate_saw.push_back(rec.commit_ts);
    // The gate runs only once the edits are durable here.
    EXPECT_GE(server_.wal().synced_seq(), 1u);
  });
  ASSERT_TRUE(server_.open_region(RegionDescriptor{"t2", "", ""}, [&] { return edits; }).is_ok());
  EXPECT_EQ(server_.get("t2", "rx", "c", 10).value()->value, "recovered");
  // The edits were re-WAL'd and synced on this server, and the gate was
  // handed what they recovered.
  EXPECT_GE(server_.wal().synced_seq(), 1u);
  EXPECT_EQ(gate_saw, std::vector<Timestamp>{3});
}

TEST_F(RegionServerTest, OpenWhoseEditsFailLeavesNoRegionBehind) {
  // The master's WAL split gave up: the open fails after its store files
  // loaded, never reaches the gate, and the region is not left on the server.
  bool gated = false;
  server_.set_region_gate([&](const std::string&, const std::string&,
                              const std::vector<WalRecord>&) { gated = true; });
  const RegionServer::RecoveredEdits failing = []() -> Result<std::vector<WalRecord>> {
    return Status::unavailable("split failed");
  };
  EXPECT_TRUE(server_.open_region(RegionDescriptor{"t7", "", ""}, failing).is_unavailable());
  EXPECT_FALSE(gated);
  EXPECT_EQ(server_.region("t7,"), nullptr);
  // Nothing stale blocks a later open of the same region.
  ASSERT_TRUE(server_.open_region(RegionDescriptor{"t7", "", ""}, {}).is_ok());
  EXPECT_TRUE(gated);
}

TEST_F(RegionServerTest, SplitEditsOverTheFlushThresholdFlushDuringTheOpen) {
  // The split edits take the write path's step as one batch, so its
  // memstore-size flush runs during the open, not at the first client write.
  RegionServerConfig cfg = quiet_config();
  cfg.memstore_flush_bytes = 200;
  RegionServer small("rs-open-flush", dfs_, coord_, cfg);
  ASSERT_TRUE(small.start().is_ok());
  std::vector<WalRecord> edits;
  for (Timestamp ts = 1; ts <= 40; ++ts) {
    WalRecord edit;
    edit.region = "old-name";  // re-stamped with this region's name and epoch
    edit.commit_ts = ts;
    edit.cells.push_back(Cell{"row" + std::to_string(ts), "c", "v" + std::to_string(ts), ts,
                              false});
    edits.push_back(std::move(edit));
  }
  std::size_t gate_saw = 0;
  small.set_region_gate([&](const std::string&, const std::string&,
                            const std::vector<WalRecord>& recovered) {
    gate_saw = recovered.size();
  });
  ASSERT_TRUE(small.open_region(RegionDescriptor{"t9", "", ""}, [&] { return edits; }).is_ok());
  auto region = small.region("t9,");
  ASSERT_NE(region, nullptr);
  EXPECT_GE(region->store_file_count(), 1u);
  EXPECT_LE(region->memstore_bytes(), cfg.memstore_flush_bytes);
  EXPECT_EQ(gate_saw, edits.size());
  // One batch: consecutive seqs, all synced before the gate.
  EXPECT_EQ(small.wal().appended_seq(), edits.size());
  EXPECT_EQ(small.wal().synced_seq(), edits.size());
  for (Timestamp ts = 1; ts <= 40; ++ts) {
    auto cell = small.get("t9", "row" + std::to_string(ts), "c", 100);
    ASSERT_TRUE(cell.is_ok() && cell.value().has_value()) << ts;
    EXPECT_EQ(cell.value()->value, "v" + std::to_string(ts));
  }
}

TEST_F(RegionServerTest, OpenFencedMidOpenFailsAndLeavesNoRegionBehind) {
  // The master re-fences the region while its split edits are fetched (a
  // later failure took it over): the write step's WAL batch is rejected,
  // the open fails before the gate, and nothing of the region stays here.
  EpochRegistry epochs;
  RegionServer fenced("rs-fenced-open", dfs_, coord_, quiet_config());
  fenced.set_epoch_registry(&epochs);
  ASSERT_TRUE(fenced.start().is_ok());
  bool gated = false;
  fenced.set_region_gate([&](const std::string&, const std::string&,
                             const std::vector<WalRecord>&) { gated = true; });
  const RegionServer::RecoveredEdits refenced = [&]() -> Result<std::vector<WalRecord>> {
    epochs.advance_to("t10,", 2);
    WalRecord edit;
    edit.commit_ts = 3;
    edit.cells.push_back(Cell{"rx", "c", "recovered", 3, false});
    return std::vector<WalRecord>{edit, edit};
  };
  const std::int64_t rejects_before = global_counter("kv.epoch_rejects").get();
  EXPECT_TRUE(fenced.open_region(RegionDescriptor{"t10", "", ""}, refenced, /*epoch=*/1)
                  .is_wrong_epoch());
  EXPECT_FALSE(gated);
  EXPECT_EQ(fenced.region("t10,"), nullptr);
  EXPECT_EQ(fenced.wal().appended_seq(), 0u);  // the batch left nothing in the WAL
  EXPECT_EQ(global_counter("kv.epoch_rejects").get(), rejects_before + 1);
  // The grant that fenced it opens it.
  ASSERT_TRUE(fenced.open_region(RegionDescriptor{"t10", "", ""}, refenced, 2).is_ok());
  EXPECT_EQ(fenced.get("t10", "rx", "c", 10).value()->value, "recovered");
}

TEST_F(RegionServerTest, RegionGateRunsBeforeOnline) {
  std::string gated_region;
  RegionState state_in_gate = RegionState::kOffline;
  server_.set_region_gate([&](const std::string& region, const std::string& server_id,
                              const std::vector<WalRecord>& recovered) {
    EXPECT_TRUE(recovered.empty());
    gated_region = region;
    EXPECT_EQ(server_id, "rs1");
    state_in_gate = server_.region(region)->state();
  });
  ASSERT_TRUE(server_.open_region(RegionDescriptor{"t3", "", ""}, {}).is_ok());
  EXPECT_EQ(gated_region, "t3,");
  EXPECT_EQ(state_in_gate, RegionState::kGated);
  EXPECT_EQ(server_.region("t3,")->state(), RegionState::kOnline);
}

TEST_F(RegionServerTest, WritesetObserverSeesCommitTsAndPiggyback) {
  std::vector<std::vector<Timestamp>> seen_ts;
  std::vector<std::optional<Timestamp>> seen_piggyback;
  server_.set_writeset_observer(
      [&](const std::vector<Timestamp>& ts, std::optional<Timestamp> piggyback) {
        seen_ts.push_back(ts);
        seen_piggyback.push_back(piggyback);
      });
  auto req = make_request(9, {"r1"});
  req.piggyback_tp = 4;
  req.recovery_replay = true;
  ASSERT_TRUE(apply_one(server_, req).is_ok());
  ASSERT_EQ(seen_ts.size(), 1u);
  EXPECT_EQ(seen_ts[0], std::vector<Timestamp>{9});
  EXPECT_EQ(seen_piggyback[0], std::optional<Timestamp>(4));

  // A frame of three slices, the middle one rejected (its table is not
  // hosted here): one observer call for the frame, carrying the two
  // accepted timestamps and the lowest TP(s) piggybacked on them. The
  // rejected slice was not received, so its lower piggyback is not
  // inherited; the client re-sends it.
  BatchApplyRequest frame;
  frame.slices = {make_request(11, {"r2"}), make_request(12, {"r3"}, "unknown_table"),
                  make_request(13, {"r4"})};
  frame.slices[0].piggyback_tp = 7;
  frame.slices[1].piggyback_tp = 2;
  frame.slices[2].piggyback_tp = 5;
  for (auto& slice : frame.slices) slice.recovery_replay = true;
  auto statuses = server_.apply_batch(frame);
  ASSERT_TRUE(statuses.is_ok());
  EXPECT_TRUE(statuses.value()[0].is_ok());
  EXPECT_TRUE(statuses.value()[1].is_unavailable());
  EXPECT_TRUE(statuses.value()[2].is_ok());
  ASSERT_EQ(seen_ts.size(), 2u) << "one observer call per frame";
  EXPECT_EQ(seen_ts[1], (std::vector<Timestamp>{11, 13}));
  EXPECT_EQ(seen_piggyback[1], std::optional<Timestamp>(5));

  // A frame with no accepted slice is not observed at all.
  frame.slices = {make_request(14, {"r5"}, "unknown_table")};
  ASSERT_TRUE(server_.apply_batch(frame).is_ok());
  EXPECT_EQ(seen_ts.size(), 2u);
}

RegionServerConfig slow_apply_config() {
  RegionServerConfig cfg = quiet_config();
  // Long enough that the crash below lands while the apply is inside its
  // service time: past the liveness check, before the WAL append.
  cfg.write_service = millis(300);
  return cfg;
}

TEST_F(RegionServerTest, CrashUnderAnApplyIsRetryableNotFatal) {
  // The crash closes the WAL segment under the in-flight append, which the
  // DFS answers with Closed. The client must see Unavailable and re-send:
  // a fatal status would make the flusher drop the write-set for good.
  RegionServer slow("rs-slow", dfs_, coord_, slow_apply_config());
  ASSERT_TRUE(slow.start().is_ok());
  ASSERT_TRUE(slow.open_region(RegionDescriptor{"t5", "", ""}, {}).is_ok());
  Status single;
  std::thread apply([&] { single = apply_one(slow, make_request(5, {"r1"}, "t5")); });
  sleep_millis(50);
  slow.crash();
  apply.join();
  EXPECT_TRUE(single.is_unavailable()) << single;
}

TEST_F(RegionServerTest, CrashUnderABatchFailsEverySliceRetryably) {
  RegionServer slow("rs-slow-batch", dfs_, coord_, slow_apply_config());
  ASSERT_TRUE(slow.start().is_ok());
  ASSERT_TRUE(slow.open_region(RegionDescriptor{"t6", "", ""}, {}).is_ok());
  BatchApplyRequest frame;
  frame.slices = {make_request(5, {"r1"}, "t6"), make_request(6, {"r2"}, "t6")};
  Result<std::vector<Status>> statuses = Status::internal("not run");
  std::thread apply([&] { statuses = slow.apply_batch(frame); });
  sleep_millis(50);
  slow.crash();
  apply.join();
  ASSERT_TRUE(statuses.is_ok()) << statuses.status();
  for (const Status& s : statuses.value()) EXPECT_TRUE(s.is_unavailable()) << s;
}

TEST_F(RegionServerTest, PreHeartbeatHookSuppliesPayload) {
  server_.set_pre_heartbeat_hook([] { return Timestamp{77}; });
  server_.heartbeat_now();
  EXPECT_EQ(coord_.session("servers", "rs1")->payload, 77);
}

TEST_F(RegionServerTest, MultiRegionApplyIsGroupedByRegion) {
  ASSERT_TRUE(server_.offload_region("t,").is_ok());
  ASSERT_TRUE(server_.open_region(RegionDescriptor{"t", "", "m"}, {}).is_ok());
  ASSERT_TRUE(server_.open_region(RegionDescriptor{"t", "m", ""}, {}).is_ok());
  ASSERT_TRUE(apply_one(server_, make_request(5, {"a", "z"})).is_ok());
  // One WAL record per region touched.
  ASSERT_TRUE(server_.persist_wal().is_ok());
  auto grouped = Wal::split(dfs_, server_.wal_path()).value();
  EXPECT_EQ(grouped.size(), 2u);
  EXPECT_EQ(server_.get("t", "a", "c", 10).value()->value, "v5");
  EXPECT_EQ(server_.get("t", "z", "c", 10).value()->value, "v5");
}

TEST_F(RegionServerTest, MemstoreFlushTriggeredBySize) {
  RegionServerConfig cfg = quiet_config();
  cfg.memstore_flush_bytes = 200;  // tiny threshold
  RegionServer small("rs-small", dfs_, coord_, cfg);
  ASSERT_TRUE(small.start().is_ok());
  ASSERT_TRUE(small.open_region(RegionDescriptor{"t4", "", ""}, {}).is_ok());
  for (Timestamp ts = 1; ts <= 10; ++ts) {
    ASSERT_TRUE(apply_one(small, make_request(ts, {"row" + std::to_string(ts)}, "t4"))
                    .is_ok());
  }
  EXPECT_GE(small.region("t4,")->store_file_count(), 1u);
  EXPECT_EQ(small.get("t4", "row1", "c", 100).value()->value, "v1");
  ASSERT_TRUE(small.shutdown().is_ok());
}

TEST_F(RegionServerTest, ScanAcrossMemstoreAndFiles) {
  ASSERT_TRUE(apply_one(server_, make_request(5, {"a", "b", "d"})).is_ok());
  ASSERT_TRUE(server_.region("t,")->flush_memstore().is_ok());
  ASSERT_TRUE(apply_one(server_, make_request(6, {"c"})).is_ok());
  auto cells = server_.scan("t", "a", "e", 10, 0).value();
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[2].row, "c");
  EXPECT_EQ(cells[2].value, "v6");
}

// Regression for the swallowed-error bug in the background WAL syncer: a
// failed sync() must be counted and logged, and the server must stay alive
// and retry the same frontier on the next tick (a transient DFS error is a
// durability regression, not a reason to die).
TEST_F(RegionServerTest, BackgroundWalSyncFailureIsCountedAndRetried) {
  ASSERT_TRUE(apply_one(server_, make_request(5, {"r1"})).is_ok());
  ASSERT_EQ(server_.wal().synced_seq(), 0u);  // async mode: nothing durable yet

  FaultInjector fault;
  FaultRule rule;
  rule.op = FaultOp::kDfsSync;
  rule.target = "/wal/";
  rule.error_probability = 1.0;
  fault.add_rule(rule);
  fault.set_enabled(true);
  dfs_.set_fault_injector(&fault);

  const std::int64_t before = global_counter("kv.wal_sync_failures").get();
  server_.wal_sync_now();
  EXPECT_EQ(global_counter("kv.wal_sync_failures").get(), before + 1);
  EXPECT_TRUE(server_.alive());               // transient failure: keep serving
  EXPECT_EQ(server_.wal().synced_seq(), 0u);  // the ack-durability gap persists

  // Heal the DFS: the next tick must retry and close the gap.
  dfs_.set_fault_injector(nullptr);
  server_.wal_sync_now();
  EXPECT_EQ(server_.wal().synced_seq(), 1u);
  EXPECT_TRUE(server_.alive());
}

// Regression for the other half of the same bug: a WrongEpoch from the
// background sync means the master fenced our WAL and recovery owns it —
// the server must converge to not-alive instead of acking writes that can
// never become durable.
TEST_F(RegionServerTest, BackgroundWalSyncFencedStopsService) {
  ASSERT_TRUE(apply_one(server_, make_request(5, {"r1"})).is_ok());
  dfs_.fence_prefix("/wal/rs1.log");

  const std::int64_t before = global_counter("kv.wal_sync_failures").get();
  server_.wal_sync_now();
  EXPECT_EQ(global_counter("kv.wal_sync_failures").get(), before + 1);

  // crash() runs on the delegated terminator thread; wait for convergence.
  const Micros deadline = now_micros() + seconds(5);
  while (server_.alive() && now_micros() < deadline) sleep_millis(2);
  EXPECT_FALSE(server_.alive());
}

// Regression for set_heartbeat_interval silently ignoring the coord
// update_ttl result: resizing the failure-detection window of a dead
// session must fail loudly, not leave a zombie heartbeating at the new
// cadence.
TEST_F(RegionServerTest, SetHeartbeatIntervalFailsWithoutLiveSession) {
  EXPECT_TRUE(server_.set_heartbeat_interval(seconds(20)).is_ok());
  ASSERT_TRUE(coord_.close_session("servers", "rs1").is_ok());
  EXPECT_FALSE(server_.set_heartbeat_interval(seconds(5)).is_ok());
}

}  // namespace
}  // namespace tfr
