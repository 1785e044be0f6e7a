// Epoch-fenced region ownership, unit level: the registry's fencing-token
// arithmetic, the WAL append check, DFS writer fencing (fence_prefix) and
// rename-based store-file fencing, lease-based self-fencing, and the
// master's epoch lifecycle (grant at create, bump on move/failover,
// idempotence under duplicate failure deliveries). The integrated zombie
// scenario lives in tests/integration/soak_test.cpp (ZombieSoakTest).
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/common/epoch.h"
#include "src/common/fault.h"
#include "src/common/metrics.h"
#include "src/dfs/dfs.h"
#include "src/kv/cluster.h"
#include "src/kv/kv_client.h"
#include "src/kv/wal.h"

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

// --- EpochRegistry -----------------------------------------------------------

TEST(EpochRegistryTest, AdvanceIsMonotonicAndValidateFencesStaleEpochs) {
  EpochRegistry reg;
  EXPECT_EQ(reg.current("r1"), 0u);
  // Unknown region: every epoch (including 0 = unfenced) passes.
  EXPECT_TRUE(reg.validate("r1", 0).is_ok());

  EXPECT_EQ(reg.advance_to("r1", 2), 2u);
  EXPECT_EQ(reg.current("r1"), 2u);
  EXPECT_TRUE(reg.validate("r1", 2).is_ok());
  EXPECT_TRUE(reg.validate("r1", 3).is_ok());  // newer grant than recorded: fine
  EXPECT_TRUE(reg.validate("r1", 1).is_wrong_epoch());
  EXPECT_TRUE(reg.validate("r1", 0).is_wrong_epoch());

  // Regressions are ignored; the epoch in force is returned.
  EXPECT_EQ(reg.advance_to("r1", 1), 2u);
  EXPECT_EQ(reg.current("r1"), 2u);

  // Regions are independent.
  EXPECT_TRUE(reg.validate("r2", 0).is_ok());
}

// --- WAL fencing-token check -------------------------------------------------

TEST(WalFencingTest, StaleEpochAppendRejectedAndCounted) {
  Dfs dfs(DfsConfig{});
  auto wal = Wal::create(dfs, "/wal/rs9.log");
  ASSERT_TRUE(wal.is_ok());
  EpochRegistry reg;
  wal.value()->set_epoch_registry(&reg);

  WalRecord rec;
  rec.region = "r1";
  rec.txn_id = 1;
  rec.client_id = "c1";
  rec.commit_ts = 5;
  rec.epoch = 1;
  ASSERT_TRUE(wal.value()->append({rec}).is_ok());  // no entry yet: unfenced

  const std::int64_t rejects_before = global_counter("kv.epoch_rejects").get();
  reg.advance_to("r1", 3);
  EXPECT_TRUE(wal.value()->append({rec}).status().is_wrong_epoch());  // epoch 1 < 3
  EXPECT_EQ(global_counter("kv.epoch_rejects").get(), rejects_before + 1);

  rec.epoch = 3;
  EXPECT_TRUE(wal.value()->append({rec}).is_ok());
  // Another region is not fenced by r1's grant.
  rec.region = "r2";
  rec.epoch = 0;
  EXPECT_TRUE(wal.value()->append({rec}).is_ok());
  EXPECT_EQ(global_counter("kv.epoch_rejects").get(), rejects_before + 1);
}

TEST(WalFencingTest, OneStaleRecordRejectsTheWholeBatch) {
  Dfs dfs(DfsConfig{});
  auto wal = Wal::create(dfs, "/wal/rs9.log").value();
  EpochRegistry reg;
  wal->set_epoch_registry(&reg);
  WalRecord fresh;
  fresh.region = "r1";  // no registry entry: unfenced
  fresh.commit_ts = 5;
  WalRecord stale = fresh;
  stale.region = "r2";
  stale.epoch = 1;
  reg.advance_to("r2", 2);

  const std::int64_t rejects_before = global_counter("kv.epoch_rejects").get();
  EXPECT_TRUE(wal->append({fresh, stale, fresh}).status().is_wrong_epoch());
  EXPECT_EQ(global_counter("kv.epoch_rejects").get(), rejects_before + 1);
  // Nothing of the batch reached the WAL, and no seq was burned.
  EXPECT_EQ(wal->appended_seq(), 0u);
  ASSERT_TRUE(wal->sync().is_ok());
  EXPECT_TRUE(Wal::read_records(dfs, "/wal/rs9.log").value().empty());
  EXPECT_EQ(wal->append({fresh}).value(), 1u);
}

// --- DFS writer fencing ------------------------------------------------------

TEST(DfsFencingTest, FencePrefixDropsUnsyncedTailAndRejectsFurtherWrites) {
  Dfs dfs(DfsConfig{});
  const std::string path = "/wal/rs1.log.00000001";
  ASSERT_TRUE(dfs.create(path).is_ok());
  ASSERT_TRUE(dfs.append(path, "durable").is_ok());
  ASSERT_TRUE(dfs.sync(path).is_ok());
  ASSERT_TRUE(dfs.append(path, "+tail").is_ok());  // in the pipeline, not durable

  dfs.fence_prefix("/wal/rs1.log");
  EXPECT_TRUE(dfs.is_fenced(path));
  EXPECT_FALSE(dfs.is_fenced("/wal/rs2.log.00000001"));

  // The un-synced tail is gone (lease recovery closed the file)...
  EXPECT_EQ(dfs.read_all(path).value(), "durable");
  // ...and the old writer can neither extend nor sync nor reopen the log.
  EXPECT_TRUE(dfs.append(path, "zombie").is_wrong_epoch());
  EXPECT_TRUE(dfs.sync(path).status().is_wrong_epoch());
  EXPECT_TRUE(dfs.create("/wal/rs1.log.00000002").is_wrong_epoch());
  // Idempotent.
  dfs.fence_prefix("/wal/rs1.log");
  EXPECT_EQ(dfs.read_all(path).value(), "durable");
}

TEST(DfsFencingTest, RenameMovesFilesAndRespectsFences) {
  Dfs dfs(DfsConfig{});
  ASSERT_TRUE(dfs.write_file("/tmp/data/r/sf-1", "cells").is_ok());
  ASSERT_TRUE(dfs.rename("/tmp/data/r/sf-1", "/data/r/sf-1").is_ok());
  EXPECT_FALSE(dfs.exists("/tmp/data/r/sf-1"));
  EXPECT_EQ(dfs.read_all("/data/r/sf-1").value(), "cells");

  EXPECT_TRUE(dfs.rename("/tmp/missing", "/data/r/sf-2").is_not_found());
  ASSERT_TRUE(dfs.write_file("/tmp/data/r/sf-3", "x").is_ok());
  EXPECT_EQ(dfs.rename("/tmp/data/r/sf-3", "/data/r/sf-1").code(), Code::kAlreadyExists);

  // The rename commit point respects fences on the destination: a fenced
  // namespace cannot gain files from a stale finalizer.
  dfs.fence_prefix("/data/fenced/");
  EXPECT_TRUE(dfs.rename("/tmp/data/r/sf-3", "/data/fenced/sf-1").is_wrong_epoch());
  EXPECT_TRUE(dfs.exists("/tmp/data/r/sf-3"));  // left in place for cleanup
}

// --- lease-based self-fencing ------------------------------------------------

TEST(SelfFenceTest, ServerPartitionedFromCoordStopsServingWithinTtl) {
  Cluster cluster(fast_cluster(2));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {"m"}).is_ok());

  const std::int64_t fences_before = global_counter("kv.self_fences").get();
  RegionServer& victim = cluster.server(0);
  cluster.fault().add_partition(PartitionRule{victim.id(), "coord", /*symmetric=*/true});

  // The victim's renewals are lost; once its conservative lease estimate
  // (measured from before the last successful send) lapses, it must stop
  // serving on its own — no coordination-service round trip required.
  const Micros deadline = now_micros() + seconds(10);
  while (victim.alive() && now_micros() < deadline) sleep_millis(5);
  EXPECT_FALSE(victim.alive());
  EXPECT_EQ(global_counter("kv.self_fences").get(), fences_before + 1);

  // The master meanwhile declared it dead via session expiry and failed the
  // regions over; the cluster stays writable.
  cluster.master().wait_for_idle();
  KvClient client(cluster.master(), millis(1));
  client.set_client_id("c1");
  EXPECT_TRUE(client.flush_writesets({make_ws(5, {"apple", "zebra"})}).is_ok());
  cluster.fault().clear_partitions();
}

// --- master epoch lifecycle --------------------------------------------------

TEST(MasterFencingTest, CreateTableGrantsEpochOneAndMoveBumpsIt) {
  Cluster cluster(fast_cluster(2));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {}).is_ok());
  const auto loc = cluster.master().locate("t", "x").value();
  EXPECT_EQ(loc.epoch, 1u);
  EXPECT_EQ(cluster.master().region_epoch(loc.region_name), 1u);

  const std::string target = loc.server_id == "rs1" ? "rs2" : "rs1";
  ASSERT_TRUE(cluster.master().move_region(loc.region_name, target).is_ok());
  EXPECT_EQ(cluster.master().region_epoch(loc.region_name), 2u);
  // The grant is durable in the coordination service's KV namespace...
  EXPECT_EQ(cluster.coord().get(kEpochPrefix + loc.region_name).value(), 2);
  // ...and armed in the registry: the old epoch is fenced.
  EXPECT_TRUE(cluster.epochs().validate(loc.region_name, 1).is_wrong_epoch());
  EXPECT_TRUE(cluster.epochs().validate(loc.region_name, 2).is_ok());
}

TEST(MasterFencingTest, FailoverBumpsTheEpochBeforeReassignment) {
  Cluster cluster(fast_cluster(2));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {"m"}).is_ok());
  KvClient client(cluster.master(), millis(1));
  client.set_client_id("c1");
  ASSERT_TRUE(client.flush_writesets({make_ws(5, {"apple", "zebra"})}).is_ok());
  ASSERT_TRUE(cluster.server(0).persist_wal().is_ok());
  ASSERT_TRUE(cluster.server(1).persist_wal().is_ok());

  // Regions are round-robined, so only the crashed server's regions get
  // fenced; the survivor's keep their original grant.
  std::set<std::string> victims;
  for (const auto& r : cluster.master().table_regions("t")) {
    if (r.server_id == cluster.server(0).id()) victims.insert(r.region_name);
  }
  ASSERT_FALSE(victims.empty());

  cluster.crash_server(0);
  const Micros deadline = now_micros() + seconds(5);
  while (cluster.master().live_servers().size() != 1 && now_micros() < deadline) {
    sleep_millis(5);
  }
  cluster.master().wait_for_idle();

  for (const auto& r : cluster.master().table_regions("t")) {
    EXPECT_EQ(r.server_id, "rs2");
    if (victims.count(r.region_name) == 0) {
      EXPECT_EQ(r.epoch, 1u) << r.region_name;
      continue;
    }
    EXPECT_EQ(r.epoch, 2u) << r.region_name;
    EXPECT_EQ(cluster.coord().get(kEpochPrefix + r.region_name).value(), 2);
    EXPECT_TRUE(cluster.epochs().validate(r.region_name, 1).is_wrong_epoch());
  }
  // Data written under epoch 1 survived the fenced takeover.
  EXPECT_EQ(client.get("t", "apple", "c", 10).value()->value, "v5");
  EXPECT_EQ(client.get("t", "zebra", "c", 10).value()->value, "v5");
}

TEST(MasterFencingTest, DuplicateFailureDeliveryDoesNotSplitTwice) {
  Cluster cluster(fast_cluster(2));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {"m"}).is_ok());
  KvClient client(cluster.master(), millis(1));
  client.set_client_id("c1");
  ASSERT_TRUE(client.flush_writesets({make_ws(5, {"apple", "zebra"})}).is_ok());
  ASSERT_TRUE(cluster.server(0).persist_wal().is_ok());
  ASSERT_TRUE(cluster.server(1).persist_wal().is_ok());

  const std::int64_t splits_before = global_counter("master.wal_splits").get();
  cluster.crash_server(0);
  const Micros deadline = now_micros() + seconds(5);
  while (cluster.master().live_servers().size() != 1 && now_micros() < deadline) {
    sleep_millis(5);
  }
  cluster.master().wait_for_idle();
  EXPECT_EQ(global_counter("master.wal_splits").get(), splits_before + 1);
  const std::uint64_t epoch_after_first =
      cluster.master().region_epoch(cluster.master().locate("t", "apple").value().region_name);

  // The same dead incarnation is reported again (a coordination service may
  // deliver duplicate expiry events; an operator may re-report). The master
  // must not run a second WAL split or bump epochs again.
  cluster.master().report_server_down("rs1", /*crashed=*/true);
  cluster.master().report_server_down("rs1", /*crashed=*/true);
  cluster.master().wait_for_idle();
  EXPECT_EQ(global_counter("master.wal_splits").get(), splits_before + 1);
  EXPECT_EQ(cluster.master()
                .region_epoch(cluster.master().locate("t", "apple").value().region_name),
            epoch_after_first);
  // And the data is still there.
  EXPECT_EQ(client.get("t", "apple", "c", 10).value()->value, "v5");
}

}  // namespace
}  // namespace tfr
