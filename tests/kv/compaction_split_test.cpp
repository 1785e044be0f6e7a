// Compaction, region splitting, region moves, and rebalancing — the elastic
// housekeeping behaviours of §2.1 ("when the existing region servers become
// overloaded, new region servers can be added dynamically").
#include <gtest/gtest.h>

#include <set>

#include "src/kv/cluster.h"
#include "src/kv/kv_client.h"

namespace tfr {
namespace {

// --- Region-level compaction --------------------------------------------------

class CompactionTest : public ::testing::Test {
 protected:
  CompactionTest() : dfs_(DfsConfig{}), cache_(1 << 20) {}

  std::unique_ptr<Region> make_region() {
    auto region = std::make_unique<Region>(RegionDescriptor{"t", "", ""}, dfs_, cache_);
    EXPECT_TRUE(region->load_store_files().is_ok());
    region->set_state(RegionState::kOnline);
    return region;
  }

  Dfs dfs_;
  BlockCache cache_;
};

TEST_F(CompactionTest, MergesFilesIntoOne) {
  auto region = make_region();
  for (Timestamp ts = 1; ts <= 3; ++ts) {
    ASSERT_TRUE(region->apply({Cell{"r" + std::to_string(ts), "c", "v" + std::to_string(ts), ts, false}}));
    ASSERT_TRUE(region->flush_memstore().is_ok());
  }
  ASSERT_EQ(region->store_file_count(), 3u);
  ASSERT_TRUE(region->compact().is_ok());
  EXPECT_EQ(region->store_file_count(), 1u);
  for (Timestamp ts = 1; ts <= 3; ++ts) {
    EXPECT_EQ(region->get("r" + std::to_string(ts), "c", 100).value()->value,
              "v" + std::to_string(ts));
  }
}

TEST_F(CompactionTest, KeepsAllVersionsWithoutPruning) {
  auto region = make_region();
  ASSERT_TRUE(region->apply({Cell{"r", "c", "old", 1, false}}));
  ASSERT_TRUE(region->flush_memstore().is_ok());
  ASSERT_TRUE(region->apply({Cell{"r", "c", "new", 5, false}}));
  ASSERT_TRUE(region->flush_memstore().is_ok());
  ASSERT_TRUE(region->compact(kNoTimestamp).is_ok());
  EXPECT_EQ(region->get("r", "c", 2).value()->value, "old");
  EXPECT_EQ(region->get("r", "c", 10).value()->value, "new");
}

TEST_F(CompactionTest, PruningDropsUnreachableVersions) {
  auto region = make_region();
  ASSERT_TRUE(region->apply({Cell{"r", "c", "v1", 1, false}}));
  ASSERT_TRUE(region->flush_memstore().is_ok());
  ASSERT_TRUE(region->apply({Cell{"r", "c", "v2", 5, false}}));
  ASSERT_TRUE(region->flush_memstore().is_ok());
  ASSERT_TRUE(region->apply({Cell{"r", "c", "v3", 9, false}}));
  ASSERT_TRUE(region->flush_memstore().is_ok());
  // No snapshot below 6 is in use: v1 is unreachable (v2 is the survivor).
  ASSERT_TRUE(region->compact(/*prune_before_ts=*/6).is_ok());
  EXPECT_EQ(region->get("r", "c", 100).value()->value, "v3");
  EXPECT_EQ(region->get("r", "c", 6).value()->value, "v2");
  // v1 is gone; a (stale, no longer legal) read below the horizon misses.
  EXPECT_FALSE(region->get("r", "c", 1).value().has_value());
}

TEST_F(CompactionTest, PruningCollapsesDeletedColumns) {
  auto region = make_region();
  ASSERT_TRUE(region->apply({Cell{"dead", "c", "v", 1, false}}));
  ASSERT_TRUE(region->flush_memstore().is_ok());
  ASSERT_TRUE(region->apply({Cell{"dead", "c", "", 3, true}}));  // tombstone
  ASSERT_TRUE(region->flush_memstore().is_ok());
  ASSERT_TRUE(region->apply({Cell{"live", "c", "v", 4, false}}));
  ASSERT_TRUE(region->flush_memstore().is_ok());
  ASSERT_TRUE(region->compact(/*prune_before_ts=*/5).is_ok());
  EXPECT_FALSE(region->get("dead", "c", 100).value().has_value());
  EXPECT_TRUE(region->get("live", "c", 100).value().has_value());
  // The tombstone chain physically disappeared.
  auto cells = region->dump_cells().value();
  for (const auto& c : cells) EXPECT_NE(c.row, "dead");
}

TEST_F(CompactionTest, OldFilesRemovedFromDfs) {
  auto region = make_region();
  ASSERT_TRUE(region->apply({Cell{"a", "c", "v", 1, false}}));
  ASSERT_TRUE(region->flush_memstore().is_ok());
  ASSERT_TRUE(region->apply({Cell{"b", "c", "v", 2, false}}));
  ASSERT_TRUE(region->flush_memstore().is_ok());
  ASSERT_EQ(dfs_.list(region->data_dir()).size(), 2u);
  ASSERT_TRUE(region->compact().is_ok());
  EXPECT_EQ(dfs_.list(region->data_dir()).size(), 1u);
}

TEST_F(CompactionTest, SingleFileIsNoop) {
  auto region = make_region();
  ASSERT_TRUE(region->apply({Cell{"a", "c", "v", 1, false}}));
  ASSERT_TRUE(region->flush_memstore().is_ok());
  ASSERT_TRUE(region->compact().is_ok());
  EXPECT_EQ(region->store_file_count(), 1u);
}

TEST_F(CompactionTest, DumpCellsMergesMemstoreAndFiles) {
  auto region = make_region();
  ASSERT_TRUE(region->apply({Cell{"a", "c", "flushed", 1, false}}));
  ASSERT_TRUE(region->flush_memstore().is_ok());
  ASSERT_TRUE(region->apply({Cell{"b", "c", "buffered", 2, false}}));
  auto cells = region->dump_cells().value();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].row, "a");
  EXPECT_EQ(cells[1].row, "b");
}

// --- cluster-level split / move / rebalance -----------------------------------

ClusterConfig small_cluster(int servers) {
  ClusterConfig cfg;
  cfg.num_servers = servers;
  cfg.coord_check_interval = millis(5);
  cfg.server.heartbeat_interval = millis(20);
  cfg.server.session_ttl = millis(150);
  cfg.server.wal_sync_interval = millis(10);
  return cfg;
}

WriteSet rows_ws(Timestamp ts, int from, int to) {
  WriteSet ws;
  ws.commit_ts = ts;
  ws.client_id = "c";
  ws.table = "t";
  for (int i = from; i < to; ++i) {
    char row[16];
    std::snprintf(row, sizeof(row), "row%05d", i);
    ws.mutations.push_back(Mutation{row, "c", "v" + std::to_string(i), false});
  }
  return ws;
}

TEST(RegionSplitTest, SplitPreservesDataAndRouting) {
  Cluster cluster(small_cluster(2));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {}).is_ok());
  KvClient client(cluster.master(), millis(1));
  ASSERT_TRUE(client.flush_writesets({rows_ws(1, 0, 100)}).is_ok());

  ASSERT_TRUE(cluster.master().split_region("t,").is_ok());
  auto regions = cluster.master().table_regions("t");
  ASSERT_EQ(regions.size(), 2u);

  // Every row still readable; routing resolves to the right child.
  for (int i = 0; i < 100; i += 7) {
    char row[16];
    std::snprintf(row, sizeof(row), "row%05d", i);
    auto v = client.get("t", row, "c", 100);
    ASSERT_TRUE(v.is_ok());
    ASSERT_TRUE(v.value().has_value()) << row;
    EXPECT_EQ(v.value()->value, "v" + std::to_string(i));
  }

  // Writes to both halves work.
  ASSERT_TRUE(client.flush_writesets({rows_ws(2, 0, 100)}).is_ok());
  EXPECT_EQ(client.get("t", "row00000", "c", 100).value()->value, "v0");
}

TEST(RegionSplitTest, EmptyRegionRefusesToSplit) {
  Cluster cluster(small_cluster(1));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {}).is_ok());
  EXPECT_EQ(cluster.master().split_region("t,").code(), Code::kInvalidArgument);
}

TEST(RegionSplitTest, SplitChildrenSurviveCrash) {
  Cluster cluster(small_cluster(2));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {}).is_ok());
  KvClient client(cluster.master(), millis(1));
  ASSERT_TRUE(client.flush_writesets({rows_ws(1, 0, 100)}).is_ok());
  ASSERT_TRUE(cluster.master().split_region("t,").is_ok());

  // Crash whichever server hosts the children (the split flushed both
  // children's data to store files, so nothing depends on the memstore).
  const auto victim = cluster.master().table_regions("t").front().server_id;
  cluster.crash_server(victim == "rs1" ? 0 : 1);
  const Micros deadline = now_micros() + seconds(10);
  while (cluster.master().live_servers().size() != 1 && now_micros() < deadline) {
    sleep_millis(5);
  }
  cluster.master().wait_for_idle();

  for (int i = 0; i < 100; i += 13) {
    char row[16];
    std::snprintf(row, sizeof(row), "row%05d", i);
    auto v = client.get("t", row, "c", 100);
    ASSERT_TRUE(v.is_ok());
    ASSERT_TRUE(v.value().has_value()) << row;
  }
}

TEST(RegionMoveTest, MovePreservesDataAndUpdatesRouting) {
  Cluster cluster(small_cluster(2));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {}).is_ok());
  KvClient client(cluster.master(), millis(1));
  ASSERT_TRUE(client.flush_writesets({rows_ws(1, 0, 50)}).is_ok());

  const auto before = cluster.master().table_regions("t").front();
  const std::string target = before.server_id == "rs1" ? "rs2" : "rs1";
  ASSERT_TRUE(cluster.master().move_region("t,", target).is_ok());
  EXPECT_EQ(cluster.master().table_regions("t").front().server_id, target);
  EXPECT_EQ(client.get("t", "row00010", "c", 100).value()->value, "v10");
  // Moving to where it already lives is a no-op.
  ASSERT_TRUE(cluster.master().move_region("t,", target).is_ok());
}

TEST(RebalanceTest, SpreadsRegionsAfterScaleOut) {
  Cluster cluster(small_cluster(1));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {"d", "h", "m", "r"}).is_ok());
  KvClient client(cluster.master(), millis(1));
  ASSERT_TRUE(client.flush_writesets({rows_ws(1, 0, 50)}).is_ok());

  // All 5 regions sit on rs1; add a server and tick the balancer until a
  // tick takes no action. Each tick moves at most one region: 5/0 -> 4/1
  // -> 3/2, then 3/2 is even enough.
  ASSERT_TRUE(cluster.add_server().is_ok());
  int moved = 0;
  for (int n; (n = cluster.master().balance_once()) > 0;) moved += n;
  EXPECT_EQ(moved, 2);

  std::map<std::string, int> counts;
  for (const auto& r : cluster.master().table_regions("t")) ++counts[r.server_id];
  EXPECT_EQ(counts.size(), 2u);
  for (const auto& [id, n] : counts) EXPECT_GE(n, 2);

  // Data intact after the moves.
  EXPECT_EQ(client.get("t", "row00000", "c", 100).value()->value, "v0");
  EXPECT_EQ(client.get("t", "row00049", "c", 100).value()->value, "v49");
  // A further tick has nothing to do.
  EXPECT_EQ(cluster.master().balance_once(), 0);
}

TEST(AutoCompactionTest, ServerCompactsWhenFilesPileUp) {
  ClusterConfig cfg = small_cluster(1);
  cfg.server.memstore_flush_bytes = 200;      // flush almost every write
  cfg.server.compaction_file_threshold = 4;   // compact early
  Cluster cluster(cfg);
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {}).is_ok());
  KvClient client(cluster.master(), millis(1));
  for (Timestamp ts = 1; ts <= 30; ++ts) {
    ASSERT_TRUE(client.flush_writesets({rows_ws(ts, static_cast<int>(ts) * 3,
                                              static_cast<int>(ts) * 3 + 3)})
                    .is_ok());
  }
  auto region = cluster.server(0).region("t,");
  ASSERT_NE(region, nullptr);
  EXPECT_LE(region->store_file_count(), 6u) << "auto-compaction should bound the file count";
  EXPECT_EQ(client.get("t", "row00003", "c", 100).value()->value, "v3");
  EXPECT_EQ(client.get("t", "row00090", "c", 100).value()->value, "v90");
}

}  // namespace
}  // namespace tfr
